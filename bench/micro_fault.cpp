// Micro-bench: the real cost of the MMU path on this host — SIGSEGV
// delivery, dispatch through the fault table, and the mprotect transitions
// — i.e. what the paper's SunOS/SPARC testbed paid per access violation
// (modelled as CostModel::per_fault_ns in the simulation). Plus the cost of
// the failure path itself: kill-and-restart cycles of a home space, timing
// the whole reincarnation (halt, log replay, REJOIN fan-out) and emitting
// recovery-time percentiles into BENCH_micro_fault.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "harness.hpp"
#include "common/logging.hpp"
#include "net/fault_transport.hpp"
#include "vm/fault_dispatcher.hpp"
#include "vm/page_arena.hpp"
#include "workload/list.hpp"

namespace {

using namespace srpc;

// Handler that just opens the page read-write.
class OpenOnFault final : public FaultHandler {
 public:
  explicit OpenOnFault(PageArena& arena) : arena_(arena) {}
  bool on_fault(void* addr, FaultAccess) override {
    const PageIndex page = arena_.page_of(addr);
    if (page == kInvalidPage) return false;
    return arena_.protect(page, PageProtection::kReadWrite).is_ok();
  }

 private:
  PageArena& arena_;
};

// Full cycle: protect page NONE -> read faults -> handler opens -> retry.
void BM_FaultRoundTrip(benchmark::State& state) {
  auto arena_or = PageArena::create(16, 4096);
  arena_or.status().check();
  PageArena arena = std::move(arena_or).value();
  OpenOnFault handler(arena);
  FaultDispatcher::instance()
      .register_range(arena.base(), arena.byte_size(), &handler)
      .check();

  std::uint8_t sink = 0;
  std::size_t page = 0;
  for (auto _ : state) {
    arena.protect(static_cast<PageIndex>(page), PageProtection::kNone).check();
    sink += arena.page_base(static_cast<PageIndex>(page))[128];  // faults
    page = (page + 1) % arena.page_count();
  }
  benchmark::DoNotOptimize(sink);
  FaultDispatcher::instance().unregister_range(arena.base()).check();
  state.SetItemsProcessed(state.iterations());
}

// Write-upgrade: PROT_READ -> write fault -> PROT_READ|WRITE (the paper's
// "two page accesses" for an update).
void BM_WriteUpgradeFault(benchmark::State& state) {
  auto arena_or = PageArena::create(16, 4096);
  arena_or.status().check();
  PageArena arena = std::move(arena_or).value();
  OpenOnFault handler(arena);
  FaultDispatcher::instance()
      .register_range(arena.base(), arena.byte_size(), &handler)
      .check();

  std::size_t page = 0;
  for (auto _ : state) {
    arena.protect(static_cast<PageIndex>(page), PageProtection::kRead).check();
    arena.page_base(static_cast<PageIndex>(page))[64] = 1;  // write fault
    page = (page + 1) % arena.page_count();
  }
  FaultDispatcher::instance().unregister_range(arena.base()).check();
  state.SetItemsProcessed(state.iterations());
}

// Baseline: the mprotect pair alone, no signal.
void BM_MprotectPair(benchmark::State& state) {
  auto arena_or = PageArena::create(1, 4096);
  arena_or.status().check();
  PageArena arena = std::move(arena_or).value();
  for (auto _ : state) {
    arena.protect(0, PageProtection::kNone).check();
    arena.protect(0, PageProtection::kReadWrite).check();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_FaultRoundTrip);
BENCHMARK(BM_WriteUpgradeFault);
BENCHMARK(BM_MprotectPair);

// Kill-and-restart cycles: a ground space commits a mutation into a home,
// the home's process dies, World::restart_space brings its next incarnation
// up (join worker, replay RecoveryLog, announce REJOIN). The measured
// window is the whole restart — the recovery-time a client-visible outage
// lasts beyond failure detection. Real nanoseconds (steady_clock): replay
// is host compute, not simulated wire time.
void run_recovery_cycles() {
  using Clock = std::chrono::steady_clock;
  // SRPC_BENCH_NODES doubles as the cycle count here, capped: every cycle
  // is a full world round trip plus a restart.
  const std::uint32_t cycles =
      std::min<std::uint32_t>(bench::node_count_from_env(20), 50u);

  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;
  options.fault_injection = true;
  options.timeouts = TimeoutConfig::aggressive();
  options.recovery = true;
  options.checkpoint_interval = 8;  // a bounded replay tail per cycle
  World world(options);
  AddressSpace& ground = world.create_space("ground");
  AddressSpace& home = world.create_space("home");
  workload::register_list_type(world).status().check();

  workload::ListNode* head = nullptr;
  auto rebind = [&] {
    home.bind("head", [&head](CallContext&) -> workload::ListNode* { return head; })
        .check();
  };
  rebind();
  home.run([&](Runtime& rt) {
    auto built = workload::build_list(rt, 32, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    built.status().check();
    head = built.value();
    rt.checkpoint_now();
  });

  MetricsRegistry latency;
  Histogram& restart_ns =
      latency.histogram("rpc.roundtrip_ns{kind=RECOVERY_RESTART}");
  for (std::uint32_t cycle = 0; cycle < cycles; ++cycle) {
    // One committed session per cycle so every incarnation replays fresh
    // WAL records, not just the checkpoint.
    ground.run([&](Runtime& rt) {
      Session session(rt);
      auto h = typed_call<workload::ListNode*>(rt, home.id(), "head");
      h.status().check();
      rt.prefetch(h.value(), 1 << 16).check();
      h.value()->value = static_cast<std::int64_t>(cycle);
      session.end().check();
    });
    world.fault()->crash_space(home.id());
    const auto start = Clock::now();
    world.restart_space(home.id()).check();
    const auto stop = Clock::now();
    restart_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
    rebind();
  }

  const std::uint64_t replayed = home.run(
      [](Runtime& rt) { return rt.stats().recovery_replays; });
  const std::uint64_t fenced = ground.run(
      [](Runtime& rt) { return rt.stats().fenced_stale_messages; });

  bench::RobustnessCounters robustness;
  robustness.add(ground.runtime().stats());
  robustness.add(home.run([](Runtime& rt) { return rt.stats(); }));

  const std::vector<std::string> columns = {
      "cycles", "restart_p50_ns", "restart_p95_ns", "restart_p99_ns",
      "restart_max_ns", "replayed_records", "fenced_stale"};
  const std::vector<std::vector<double>> rows = {
      {static_cast<double>(cycles), restart_ns.percentile(0.50),
       restart_ns.percentile(0.95), restart_ns.percentile(0.99),
       static_cast<double>(restart_ns.max()), static_cast<double>(replayed),
       static_cast<double>(fenced)}};
  bench::print_table("micro_fault: space reincarnation (real ns)", columns,
                     rows);
  bench::write_bench_json("micro_fault", {{"cycles", static_cast<double>(cycles)}},
                          columns, rows, robustness, &latency);
}

}  // namespace

int main(int argc, char** argv) {
  srpc::init_log_level_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_recovery_cycles();
  return 0;
}
