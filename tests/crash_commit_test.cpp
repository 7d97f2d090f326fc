// Crash-safe session commit: the two-phase write-back must leave every
// surviving home byte-identical — all committed or all rolled back — for
// every injected crash point (lost PREPARE, lost PREPARE_ACK, lost COMMIT,
// lost COMMIT_ACK, duplicated deliveries, partitions before and between
// the phases), in both delta and full-image shipping modes. Dead spaces
// are contained: calls and cached-page dereferences fail fast with a
// typed SPACE_DEAD error, leases expire, and orphaned extended_malloc
// storage is reclaimed with matching accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "core/smart_rpc.hpp"
#include "net/fault_transport.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;
using Clock = std::chrono::steady_clock;

constexpr auto kBound = std::chrono::seconds(5);

constexpr std::int64_t kOldB = 10 + 11 + 12;
constexpr std::int64_t kOldC = 20 + 21 + 22;
constexpr std::int64_t kNewB = 1000 + 11 + 12;
constexpr std::int64_t kNewC = 2000 + 21 + 22;

// Parameter: ship modified sets as byte-range deltas (true) or full graph
// images (false). The atomicity guarantee must hold for both encodings.
class CrashCommitTest : public ::testing::TestWithParam<bool> {
 protected:
  CrashCommitTest() {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    options.fault_injection = true;
    options.timeouts = TimeoutConfig::aggressive();
    options.modified_deltas = GetParam();
    world_ = std::make_unique<World>(options);
    a_ = &world_->create_space("A");
    b_ = &world_->create_space("B");
    c_ = &world_->create_space("C");
    workload::register_list_type(*world_).status().check();
    b_->bind("headB", [this](CallContext&) -> ListNode* { return head_b_; })
        .check();
    b_->bind("sumB",
             [this](CallContext&) -> std::int64_t {
               return workload::sum_list(head_b_);
             })
        .check();
    c_->bind("headC", [this](CallContext&) -> ListNode* { return head_c_; })
        .check();
    c_->bind("sumC",
             [this](CallContext&) -> std::int64_t {
               return workload::sum_list(head_c_);
             })
        .check();
    b_->run([this](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(10 + i);
      });
      head.status().check();
      head_b_ = head.value();
    });
    c_->run([this](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(20 + i);
      });
      head.status().check();
      head_c_ = head.value();
    });
    fault_ = world_->fault();
  }

  ~CrashCommitTest() override {
    if (fault_ != nullptr) fault_->disarm();
  }

  void drop_all(MessageType kind) {
    FaultOptions opts;
    opts.drop = 1.0;
    fault_->target({kind});
    fault_->arm(opts);
  }

  // Opens a session on A, caches both heads, and dirties one datum per
  // home — the canonical two-home modified set for the commit matrix.
  void dirty_both_homes(Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, 1, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    auto hc = typed_call<ListNode*>(rt, 2, "headC");
    ASSERT_TRUE(hc.is_ok()) << hc.status().to_string();
    ASSERT_TRUE(rt.prefetch(hc.value(), 1 << 16).is_ok());
    hb.value()->value = 1000;
    hc.value()->value = 2000;
  }

  // Reads both homes through a fresh session on a healed wire and asserts
  // they are consistent: both committed or both still the original — a
  // mixed outcome is the atomicity violation this suite exists to catch.
  void expect_homes(std::int64_t expect_b, std::int64_t expect_c) {
    a_->run([&](Runtime& rt) {
      Session session(rt);
      auto sb = typed_call<std::int64_t>(rt, 1, "sumB");
      ASSERT_TRUE(sb.is_ok()) << sb.status().to_string();
      auto sc = typed_call<std::int64_t>(rt, 2, "sumC");
      ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
      EXPECT_EQ(sb.value(), expect_b);
      EXPECT_EQ(sc.value(), expect_c);
      const bool b_committed = sb.value() == kNewB;
      const bool c_committed = sc.value() == kNewC;
      EXPECT_EQ(b_committed, c_committed)
          << "half-committed session: B=" << sb.value() << " C=" << sc.value();
      ASSERT_TRUE(session.end().is_ok());
    });
  }

  std::unique_ptr<World> world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
  AddressSpace* c_ = nullptr;
  FaultTransport* fault_ = nullptr;
  ListNode* head_b_ = nullptr;
  ListNode* head_c_ = nullptr;
  ListNode* remembered_ = nullptr;  // cached pointer carried across run()s
};

TEST_P(CrashCommitTest, HealthyWireCommitsBothHomes) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    ASSERT_TRUE(rt.end_session().is_ok());
    EXPECT_EQ(rt.stats().wb_prepares, 2u);
    EXPECT_EQ(rt.stats().wb_commits, 2u);
    EXPECT_EQ(rt.stats().wb_aborts, 0u);
  });
  expect_homes(kNewB, kNewC);
}

TEST_P(CrashCommitTest, LostPrepareRollsBackEveryHome) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    drop_all(MessageType::kWbPrepare);
    const auto start = Clock::now();
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_LT(Clock::now() - start, kBound);
    fault_->disarm();
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  expect_homes(kOldB, kOldC);
}

TEST_P(CrashCommitTest, LostPrepareAckDiscardsStagedBytes) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    // The PREPARE lands and is staged at the home, only the ack is eaten:
    // nothing may be applied, and the abort must discard the stage.
    drop_all(MessageType::kWbPrepareAck);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    fault_->disarm();
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  b_->run([](Runtime& rt) { EXPECT_GE(rt.stats().wb_prepares_served, 1u); });
  expect_homes(kOldB, kOldC);
}

TEST_P(CrashCommitTest, SecondHomePrepareFailureAbortsFirst) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    // B prepares fine; C is unreachable. Phase one fails and the prepared
    // B stage must be rolled back with an explicit WB_ABORT.
    fault_->partition(2);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_GE(rt.stats().wb_aborts, 1u);
    // Abort while C is still cut off: local unwind completes, the
    // unreachable peer is reported.
    EXPECT_FALSE(rt.abort_session().is_ok());
    fault_->heal_all();
  });
  b_->run([](Runtime& rt) { EXPECT_GE(rt.stats().wb_aborts_served, 1u); });
  expect_homes(kOldB, kOldC);
}

TEST_P(CrashCommitTest, LostCommitConvergesOnRetry) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    drop_all(MessageType::kWbCommit);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    // Both homes hold acknowledged stages; once the wire heals the retried
    // end re-drives the protocol to completion.
    fault_->disarm();
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  expect_homes(kNewB, kNewC);
}

TEST_P(CrashCommitTest, HalfCommittedEpochRollsForward) {
  a_->run([&](Runtime& rt) {
    // Sequential commit order: the drop budget below eats exactly B's ack
    // attempts before C's commit is even issued. Under the parallel
    // fan-out both commits share the wire and the drops spread across
    // them (that in-doubt shape is pipeline_fault_test's
    // PartitionDuringParallelPrepareRollsForward).
    rt.set_parallel_commit(false);
    dirty_both_homes(rt);
    // B's COMMIT applies but every ack is eaten (3 = max_attempts), so the
    // coordinator stops with B committed and C still staged — the exact
    // in-doubt crash point. The resolution is roll-forward: retrying
    // end_session() re-prepares and commits idempotently on both.
    fault_->drop_next(MessageType::kWbCommitAck, 3);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  // Width 1: B's failed commit stopped the phase before C was addressed.
  c_->run([](Runtime& rt) { EXPECT_EQ(rt.stats().wb_commits_served, 0u); });
  a_->run([](Runtime& rt) { ASSERT_TRUE(rt.end_session().is_ok()); });
  expect_homes(kNewB, kNewC);
}

TEST_P(CrashCommitTest, FullWidthCommitAddressesEveryHome) {
  Status ended = Status::ok();
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.parallel_commit());
    dirty_both_homes(rt);
    // The same lost acks as above, but both commits are in flight before
    // either is settled. Which home's acks the drops eat depends on which
    // ack reaches the wire first, so the attempt may fail or succeed.
    fault_->drop_next(MessageType::kWbCommitAck, 3);
    ended = rt.end_session();
  });
  // Either way C was addressed, and served its commit, in that attempt.
  c_->run([](Runtime& rt) { EXPECT_GE(rt.stats().wb_commits_served, 1u); });
  if (!ended.is_ok()) {
    a_->run([](Runtime& rt) { ASSERT_TRUE(rt.end_session().is_ok()); });
  }
  expect_homes(kNewB, kNewC);
}

TEST_P(CrashCommitTest, DuplicatedPrepareAndCommitAreIdempotent) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    FaultOptions opts;
    opts.seed = 0xC0FFEEULL;
    opts.duplicate = 1.0;
    fault_->target({MessageType::kWbPrepare, MessageType::kWbCommit});
    fault_->arm(opts);
    ASSERT_TRUE(rt.end_session().is_ok());
    fault_->disarm();
  });
  // Every prepare and commit was delivered twice; the duplicates re-stage
  // and re-ack without double-applying.
  b_->run([](Runtime& rt) { EXPECT_GE(rt.stats().wb_prepares_served, 2u); });
  expect_homes(kNewB, kNewC);
}

TEST_P(CrashCommitTest, PartitionBeforePrepareLeavesHomesUntouched) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    fault_->partition(1);
    const auto start = Clock::now();
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_LT(Clock::now() - start, kBound);
    EXPECT_FALSE(rt.abort_session().is_ok());  // B unreachable, reported
    fault_->heal_all();
  });
  expect_homes(kOldB, kOldC);
}

TEST_P(CrashCommitTest, DeadSpaceFailsFastAndRevokesCachedPages) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, 1, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    EXPECT_EQ(workload::sum_list(hb.value()), kOldB);
    remembered_ = hb.value();
  });
  // B's process is gone: the transport cut is permanent and every space is
  // told. A's worker revokes B's cached pages and reclaims before the next
  // closure runs.
  world_->crash_space(1);
  a_->run([&](Runtime& rt) {
    EXPECT_EQ(rt.stats().peers_died, 1u);
    EXPECT_GE(rt.stats().leases_expired, 1u);

    // A new call into the dead space fails fast with the typed error —
    // no deadline burn, no probe.
    const auto call_start = Clock::now();
    auto sum = typed_call<std::int64_t>(rt, 1, "sumB");
    ASSERT_FALSE(sum.is_ok());
    EXPECT_EQ(sum.status().code(), StatusCode::kSpaceDead)
        << sum.status().to_string();
    EXPECT_LT(Clock::now() - call_start, kBound);

    // The cached page was revoked, so re-touching it re-faults into the
    // fetch path, which converts the peer's health into the same typed
    // error instead of serving stale bytes.
    const auto fetch_start = Clock::now();
    auto refetch = rt.prefetch(remembered_, 0);
    ASSERT_FALSE(refetch.is_ok());
    EXPECT_EQ(refetch.code(), StatusCode::kSpaceDead) << refetch.to_string();
    EXPECT_LT(Clock::now() - fetch_start, kBound);
    EXPECT_GE(rt.stats().failfast_rejections, 2u);

    // Abort skips the dead peer and still unwinds: C acks its invalidate.
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
}

TEST_P(CrashCommitTest, OwnerCrashReclaimsOrphanedRemoteHeap) {
  // C plays the ground: it extended_mallocs storage on home B and then
  // dies with the session still open.
  c_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto type = rt.host_types().find<ListNode>();
    ASSERT_TRUE(type.is_ok());
    auto mem = rt.extended_malloc(1, type.value(), 4);
    ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
    ASSERT_TRUE(rt.flush_pending_memory_ops().is_ok());
  });
  const std::uint64_t owned =
      b_->run([](Runtime& rt) { return rt.heap().owned_bytes(2); });
  ASSERT_GT(owned, 0u);

  world_->crash_space(2);
  b_->run([owned](Runtime& rt) {
    EXPECT_EQ(rt.heap().owned_bytes(2), 0u);
    EXPECT_EQ(rt.stats().orphan_bytes_reclaimed, owned);
    EXPECT_EQ(rt.stats().peers_died, 1u);
  });
}

TEST_P(CrashCommitTest, AbortedSessionReclaimsItsAllocations) {
  a_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto type = rt.host_types().find<ListNode>();
    ASSERT_TRUE(type.is_ok());
    auto mem = rt.extended_malloc(1, type.value(), 2);
    ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
    ASSERT_TRUE(rt.flush_pending_memory_ops().is_ok());
    ASSERT_TRUE(rt.abort_session().is_ok());
  });
  // The abort's INVALIDATE carried aborted=1: B reclaimed the storage the
  // session had created there and accounted for it.
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.heap().owned_bytes(0), 0u);
    EXPECT_GT(rt.stats().orphan_bytes_reclaimed, 0u);
  });
}

TEST_P(CrashCommitTest, CommittedSessionPromotesItsAllocations) {
  a_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto type = rt.host_types().find<ListNode>();
    ASSERT_TRUE(type.is_ok());
    auto mem = rt.extended_malloc(1, type.value(), 2);
    ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
    ASSERT_TRUE(rt.flush_pending_memory_ops().is_ok());
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  // A committed end promotes the storage to durable home data — owner tags
  // cleared, nothing reclaimed.
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.heap().owned_bytes(0), 0u);
    EXPECT_EQ(rt.stats().orphan_bytes_reclaimed, 0u);
    EXPECT_GT(rt.heap().live_bytes(), 0u);
  });
}

TEST_P(CrashCommitTest, LapsedLeaseRevokesAndRecovers) {
  ASSERT_NE(world_->sim(), nullptr);
  a_->run([&](Runtime& rt) {
    rt.set_lease_ttl_ns(1'000'000);  // 1 ms of virtual time
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, 1, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    EXPECT_EQ(workload::sum_list(hb.value()), kOldB);

    // A long silence from B: the lease lapses and the next safe point
    // (an unrelated call to C) revokes its cached pages.
    world_->sim()->clock().advance(1'000'000'000);
    auto sc = typed_call<std::int64_t>(rt, 2, "sumC");
    ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
    EXPECT_GE(rt.stats().leases_expired, 1u);
    EXPECT_EQ(rt.detector().health(1), PeerHealth::kSuspect);

    // B is merely silent, not dead: re-touching the data re-fetches it,
    // which renews the lease and clears the suspicion.
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    EXPECT_EQ(workload::sum_list(hb.value()), kOldB);
    EXPECT_EQ(rt.detector().health(1), PeerHealth::kAlive);
    ASSERT_TRUE(rt.end_session().is_ok());
    rt.set_lease_ttl_ns(0);
  });
}

INSTANTIATE_TEST_SUITE_P(ShipModes, CrashCommitTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Delta" : "FullImage";
                         });

}  // namespace
}  // namespace srpc
