// Distributed tracing demo: one traced run that exercises every wire kind
// the observability layer annotates — CALL (nested + callback), FETCH
// (fault-driven page fills), ALLOC_BATCH (batched extended_malloc), DEREF
// (the lazy baseline's explicit callbacks), and the session commit:
// WB_PREPARE/WB_COMMIT (two-phase write-back) and the INVALIDATE multicast.
//
// Output:
//   trace_demo.json — Chrome trace-event / Perfetto timeline of all spaces
//   (load it at https://ui.perfetto.dev or chrome://tracing)
//   plus each space's metrics snapshot, the aggregated health snapshot
//   (World::health_json — detector verdicts, lock contention, SLO state,
//   flight-recorder fill), and the critical-path breakdown of the first
//   session on stdout.
//
// Build & run:  ./build/examples/trace_demo
#include <cstdio>

#include "baselines/lazy_rpc.hpp"
#include "core/smart_rpc.hpp"
#include "obs/critical_path.hpp"
#include "workload/list.hpp"

using namespace srpc;
using workload::ListNode;

int main() {
  WorldOptions options;
  options.tracing = true;  // SRPC_TRACE=1 does the same from the outside
  options.cache.closure_bytes = 0;  // no eager closure: every page is a FETCH
  World world(options);
  auto& a = world.create_space("A");
  auto& b = world.create_space("B");
  auto& c = world.create_space("C");
  workload::register_list_type(world).status().check();

  const SpaceId a_id = a.id();
  const SpaceId c_id = c.id();

  // C: bumps the list (write faults -> travelling modified set) and calls
  // back into A — the callback span parents under C's serve span.
  c.bind("bump_and_report",
         [a_id](CallContext& ctx, ListNode* head) -> std::int64_t {
           std::int64_t sum = 0;
           for (ListNode* n = head; n != nullptr; n = n->next) {
             n->value += 100;
             sum += n->value;
           }
           auto ack = typed_call<std::int64_t>(ctx.runtime, a_id, "notify", sum);
           ack.status().check();
           return sum;
         })
      .check();

  // B: forwards to C (nested CALL), so the trace crosses three spaces.
  b.bind("forward",
         [c_id](CallContext& ctx, ListNode* head) -> std::int64_t {
           auto sum =
               typed_call<std::int64_t>(ctx.runtime, c_id, "bump_and_report", head);
           sum.status().check();
           return sum.value();
         })
      .check();

  // B: the lazy baseline's explicit-callback walk (DEREF round trips).
  b.bind("lazy_sum",
         [](CallContext& ctx, LongPointer head) -> std::int64_t {
           lazy::LazyClient client(ctx.runtime);
           std::int64_t sum = 0;
           LongPointer p = head;
           while (!p.is_null()) {
             auto value = client.deref(p);
             value.status().check();
             sum += value.value().view<ListNode>()->value;
             p = value.value().pointers.at(0);
           }
           return sum;
         })
      .check();

  SessionId traced_session = kNoSession;
  a.run([&](Runtime& rt) {
    auto head = workload::build_list(
        rt, 8, [](std::uint32_t i) { return static_cast<std::int64_t>(i + 1); });
    head.status().check();
    bind_procedure(rt, "notify",
                   [](CallContext&, std::int64_t sum) -> std::int64_t { return sum; })
        .check();

    // One session — nested chain + callback + remote allocation, committed
    // with the two-phase WB_PREPARE / WB_COMMIT protocol.
    {
      Session session(rt);
      traced_session = session.id();
      auto sum = session.call<std::int64_t>(b.id(), "forward", head.value());
      sum.status().check();
      std::printf("[A] chain returned %lld\n", static_cast<long long>(sum.value()));

      // Lazy-method callbacks: B walks A's list via DEREF round trips.
      auto type = rt.host_types().find<ListNode>();
      type.status().check();
      auto exported = lazy::export_pointer(rt, head.value(), type.value());
      exported.status().check();
      auto lazy_sum =
          session.call<std::int64_t>(b.id(), "lazy_sum", exported.value());
      lazy_sum.status().check();
      std::printf("[A] lazy walk summed %lld\n",
                  static_cast<long long>(lazy_sum.value()));

      // Batched remote memory management: ALLOC_BATCH to B's home. The
      // write lands after the last control transfer to B, so it is still
      // pending at session end — that is what WB_PREPARE/WB_COMMIT ship.
      auto node = session.extended_malloc<ListNode>(b.id());
      node.status().check();
      node.value()->value = 4242;
      session.end().check();
    }
    return 0;
  });

  // Per-space metrics snapshots (counters + latency histograms as JSON).
  for (SpaceId id = 0; id < world.space_count(); ++id) {
    auto& space = world.space(id);
    const std::string json =
        space.run([](Runtime& rt) { return rt.metrics_json(); });
    std::printf("[%s] metrics: %s\n", space.name().c_str(), json.c_str());
  }

  // Aggregated health snapshot: detector verdicts, lock contention, dedup
  // and completion-slot occupancy, SLO state, flight-recorder fill.
  std::printf("health: %s\n", world.health_json().c_str());

  // Where did the session's wall-clock go? The sweep charges every instant
  // to exactly one component, so the parts sum to the total.
  CriticalPathAnalyzer analyzer(world.collect_spans());
  auto breakdown = analyzer.analyze_session(traced_session);
  breakdown.status().check();
  const CriticalPathBreakdown& cp = breakdown.value();
  std::printf(
      "critical path of session %llu: total %.3f ms = network %.3f + "
      "execution %.3f + lock %.3f + retransmit %.3f + local %.3f\n",
      static_cast<unsigned long long>(traced_session),
      static_cast<double>(cp.total_ns) / 1e6,
      static_cast<double>(cp.network_ns) / 1e6,
      static_cast<double>(cp.execution_ns) / 1e6,
      static_cast<double>(cp.lock_wait_ns) / 1e6,
      static_cast<double>(cp.retransmit_ns) / 1e6,
      static_cast<double>(cp.local_ns) / 1e6);

  // One merged Chrome trace-event / Perfetto timeline for every space.
  world.merge_traces("trace_demo.json").check();
  std::printf("wrote trace_demo.json (open in https://ui.perfetto.dev)\n");
  return 0;
}
