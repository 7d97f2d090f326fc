// Space reincarnation: the kill-and-restart chaos matrix. A crashed space
// replays its world-owned RecoveryLog (checkpoint + WAL) into a fresh
// incarnation, announces REJOIN, and the world converges — recovered heaps
// byte-identical to the never-crashed state, in-doubt two-phase stages
// resolved by the replayed decision log (commit rolls forward, anything
// else presumed-abort), and stale frames from the prior life fenced by
// incarnation number. The matrix crosses crash points (before prepare,
// after prepare, after the commit decision, mid-commit, after settle) with
// both modified-set ship modes and with restart before/after the failure
// detector's verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/smart_rpc.hpp"
#include "mem/recovery_log.hpp"
#include "net/fault_transport.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

constexpr SpaceId kA = 0;  // coordinator / ground
constexpr SpaceId kB = 1;  // home
constexpr SpaceId kC = 2;  // home

constexpr std::int64_t kOldB = 10 + 11 + 12;
constexpr std::int64_t kOldC = 20 + 21 + 22;
constexpr std::int64_t kNewB = 1000 + 11 + 12;
constexpr std::int64_t kNewC = 2000 + 21 + 22;

// Parameter: deltas (true) or full graph images (false) — recovery replays
// staged bytes in whichever encoding the commit shipped.
class RecoveryTest : public ::testing::TestWithParam<bool> {
 protected:
  RecoveryTest() {
    WorldOptions options;
    options.cost = CostModel::zero();
    options.cache.closure_bytes = 0;
    options.fault_injection = true;
    options.timeouts = TimeoutConfig::aggressive();
    options.modified_deltas = GetParam();
    options.recovery = true;
    world_ = std::make_unique<World>(options);
    a_ = &world_->create_space("A");
    b_ = &world_->create_space("B");
    c_ = &world_->create_space("C");
    workload::register_list_type(*world_).status().check();
    rebind_b();
    rebind_c();
    b_->run([this](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(10 + i);
      });
      head.status().check();
      head_b_ = head.value();
      // Local data predates the WAL; a checkpoint makes it recoverable.
      rt.checkpoint_now();
    });
    c_->run([this](Runtime& rt) {
      auto head = workload::build_list(rt, 3, [](std::uint32_t i) {
        return static_cast<std::int64_t>(20 + i);
      });
      head.status().check();
      head_c_ = head.value();
      rt.checkpoint_now();
    });
    fault_ = world_->fault();
  }

  ~RecoveryTest() override {
    if (fault_ != nullptr) fault_->disarm();
  }

  // Bindings live in the Runtime, so a reincarnated space re-registers its
  // procedures; the data they serve survived in place (zombie heap +
  // replayed registration).
  void rebind_b() {
    b_->bind("headB", [this](CallContext&) -> ListNode* { return head_b_; })
        .check();
    b_->bind("sumB",
             [this](CallContext&) -> std::int64_t {
               return workload::sum_list(head_b_);
             })
        .check();
  }
  void rebind_c() {
    c_->bind("headC", [this](CallContext&) -> ListNode* { return head_c_; })
        .check();
    c_->bind("sumC",
             [this](CallContext&) -> std::int64_t {
               return workload::sum_list(head_c_);
             })
        .check();
  }

  void drop_all(MessageType kind) {
    FaultOptions opts;
    opts.drop = 1.0;
    fault_->target({kind});
    fault_->arm(opts);
  }

  // Full byte image of a space's live heap — every allocation's tags and
  // contents, via the same serializer the recovery checkpoint uses. Within
  // one world addresses are stable across reincarnations (the zombie heap
  // keeps the storage mapped and replay restore()s the exact ranges), so
  // two images being equal means byte-identical recovered state.
  static std::vector<std::uint8_t> heap_image(AddressSpace& space) {
    return space.run([](Runtime& rt) {
      RecoveryLog scratch;
      scratch.checkpoint(rt.heap());
      return scratch.snapshot().back().bytes;
    });
  }

  void dirty_both_homes(Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, kB, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    auto hc = typed_call<ListNode*>(rt, kC, "headC");
    ASSERT_TRUE(hc.is_ok()) << hc.status().to_string();
    ASSERT_TRUE(rt.prefetch(hc.value(), 1 << 16).is_ok());
    hb.value()->value = 1000;
    hc.value()->value = 2000;
  }

  void expect_homes(std::int64_t expect_b, std::int64_t expect_c) {
    a_->run([&](Runtime& rt) {
      Session session(rt);
      auto sb = typed_call<std::int64_t>(rt, kB, "sumB");
      ASSERT_TRUE(sb.is_ok()) << sb.status().to_string();
      auto sc = typed_call<std::int64_t>(rt, kC, "sumC");
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
};

// --- home crash: replay reconstructs the heap ------------------------------

TEST_P(RecoveryTest, CommittedStateSurvivesHomeCrashAfterDetection) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  const std::vector<std::uint8_t> never_crashed = heap_image(*b_);

  // Crash with the verdict delivered: every peer marks B dead first.
  world_->crash_space(kB);
  a_->run([&](Runtime& rt) {
    EXPECT_EQ(rt.detector().health(kB), PeerHealth::kDead);
    auto sum = typed_call<std::int64_t>(rt, kB, "sumB");
    ASSERT_FALSE(sum.is_ok());
    EXPECT_EQ(sum.status().code(), StatusCode::kSpaceDead);
    ASSERT_TRUE(rt.abort_session().is_ok());
  });

  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  EXPECT_EQ(world_->incarnation(kB), 2u);
  EXPECT_EQ(b_->incarnations_retired(), 1u);
  rebind_b();

  EXPECT_EQ(heap_image(*b_), never_crashed);
  b_->run([](Runtime& rt) {
    EXPECT_GT(rt.stats().recovery_replays, 0u);
    EXPECT_EQ(rt.stats().rejoins_sent, 2u);  // announced to A and C
  });
  // REJOIN reopened the dead verdict; the first exchange completes it.
  a_->run([](Runtime& rt) {
    EXPECT_GE(rt.stats().rejoins_served, 1u);
    EXPECT_EQ(rt.detector().health(kB), PeerHealth::kRejoining);
  });
  expect_homes(kNewB, kNewC);
  a_->run([](Runtime& rt) {
    EXPECT_EQ(rt.detector().health(kB), PeerHealth::kAlive);
  });
}

TEST_P(RecoveryTest, CommittedStateSurvivesHomeCrashBeforeDetection) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  const std::vector<std::uint8_t> never_crashed = heap_image(*b_);

  // The process dies but no failure verdict circulates — the restart races
  // ahead of detection, so peers first learn anything via the REJOIN.
  fault_->crash_space(kB);
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();

  EXPECT_EQ(heap_image(*b_), never_crashed);
  expect_homes(kNewB, kNewC);
}

TEST_P(RecoveryTest, MidSessionHomeCrashLeavesCommittedHistoryIntact) {
  const std::vector<std::uint8_t> never_crashed = heap_image(*b_);
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, kB, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    hb.value()->value = 4242;  // dirty, never committed
  });
  world_->crash_space(kB);
  a_->run([&](Runtime& rt) { ASSERT_TRUE(rt.abort_session().is_ok()); });

  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();
  // The uncommitted mutation died with the session; replay restores the
  // last durable state exactly.
  EXPECT_EQ(heap_image(*b_), never_crashed);
  expect_homes(kOldB, kOldC);
}

TEST_P(RecoveryTest, PromotedAllocationsSurviveHomeCrash) {
  a_->run([](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto type = rt.host_types().find<ListNode>();
    ASSERT_TRUE(type.is_ok());
    auto mem = rt.extended_malloc(kB, type.value(), 2);
    ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
    ASSERT_TRUE(rt.flush_pending_memory_ops().is_ok());
    auto* nodes = static_cast<ListNode*>(mem.value());
    nodes[0].value = 7;
    nodes[1].value = 9;
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  b_->run([](Runtime& rt) { EXPECT_EQ(rt.heap().owned_bytes(kA), 0u); });
  const std::vector<std::uint8_t> never_crashed = heap_image(*b_);

  fault_->crash_space(kB);
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();
  // ALLOC_BATCH + staged commit + settle replay end-to-end: the granted
  // storage re-registers at its exact address with its committed bytes and
  // its promoted (owner-free) tags.
  EXPECT_EQ(heap_image(*b_), never_crashed);
  b_->run([](Runtime& rt) { EXPECT_EQ(rt.heap().owned_bytes(kA), 0u); });
}

// --- coordinator crash: the decision log resolves in-doubt stages ----------

TEST_P(RecoveryTest, LostCommitRollsForwardViaRejoinDecisions) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    drop_all(MessageType::kWbCommit);  // decision made, no commit lands
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  fault_->disarm();
  // Crash before detection: B and C still consider A alive and keep the
  // acked stages in doubt.
  fault_->crash_space(kA);
  ASSERT_TRUE(world_->restart_space(kA).is_ok());

  // A's replayed decision log said COMMIT; both homes rolled forward.
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
    EXPECT_EQ(rt.stats().in_doubt_resolved_abort, 0u);
  });
  c_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
  });
  expect_homes(kNewB, kNewC);
}

TEST_P(RecoveryTest, MidCommitCoordinatorCrashConvergesAfterDetection) {
  a_->run([&](Runtime& rt) {
    // Sequential fan-out so the ack drops land entirely on B: B applies
    // its commit (acks eaten), C never even sees phase two — the classic
    // half-committed crash point.
    rt.set_parallel_commit(false);
    dirty_both_homes(rt);
    fault_->drop_next(MessageType::kWbCommitAck, 3);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  // Crash after detection: the verdict runs its containment on B and C,
  // which must keep C's stage in doubt (dropping it would turn the logged
  // commit into silent data loss).
  world_->crash_space(kA);
  ASSERT_TRUE(world_->restart_space(kA).is_ok());

  c_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
  });
  expect_homes(kNewB, kNewC);
}

TEST_P(RecoveryTest, UndecidedPreparePresumesAbort) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    // Stages land on both homes but every ack is eaten: phase one fails
    // with nothing acked, so no decision is ever logged.
    drop_all(MessageType::kWbPrepareAck);
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  fault_->disarm();
  world_->crash_space(kA);
  ASSERT_TRUE(world_->restart_space(kA).is_ok());

  // No decision in the REJOIN covers the stage: presumed abort.
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_abort, 1u);
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 0u);
  });
  c_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_abort, 1u);
  });
  expect_homes(kOldB, kOldC);
}

// --- incarnation fencing ----------------------------------------------------

TEST_P(RecoveryTest, StaleFramesFromPriorIncarnationAreFenced) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, kB, "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    // Hold every FETCH_REPLY in the decorator: B's first life answers, but
    // the answers stay parked on the wire across its death.
    FaultOptions opts;
    opts.delay = 1.0;
    opts.delay_window = 100000;
    fault_->target({MessageType::kFetchReply});
    fault_->arm(opts);
    auto fetched = rt.prefetch(hb.value(), 1 << 16);
    ASSERT_FALSE(fetched.is_ok());
    EXPECT_EQ(fetched.code(), StatusCode::kDeadlineExceeded);
  });
  world_->crash_space(kB);
  a_->run([](Runtime& rt) { ASSERT_TRUE(rt.abort_session().is_ok()); });
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();

  // Release the parked replies of incarnation 1 into a world that has
  // acknowledged incarnation 2: every one must be fenced, not misread as
  // an answer owed to the successor.
  const std::uint64_t fenced_before =
      a_->run([](Runtime& rt) { return rt.stats().fenced_stale_messages; });
  fault_->disarm();  // flush() delivers the held frames
  a_->run([&](Runtime& rt) {
    EXPECT_GT(rt.stats().fenced_stale_messages, fenced_before);
  });
  // The fenced stragglers poisoned nothing: normal traffic proceeds.
  expect_homes(kOldB, kOldC);
}

// --- checkpoint cadence -----------------------------------------------------

TEST_P(RecoveryTest, CheckpointCadenceBoundsReplay) {
  b_->run([](Runtime& rt) { rt.set_checkpoint_interval(1); });
  for (int round = 0; round < 2; ++round) {
    a_->run([&](Runtime& rt) {
      ASSERT_TRUE(rt.begin_session().is_ok());
      auto hb = typed_call<ListNode*>(rt, kB, "headB");
      ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
      ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
      hb.value()->value = 1000 + round;
      ASSERT_TRUE(rt.end_session().is_ok());
    });
  }
  b_->run([](Runtime& rt) {
    EXPECT_GE(rt.stats().checkpoints_taken, 2u);  // one per settle
  });
  ASSERT_NE(world_->recovery_log(kB), nullptr);
  EXPECT_GE(world_->recovery_log(kB)->checkpoints(), 2u);
  const std::vector<std::uint8_t> never_crashed = heap_image(*b_);

  fault_->crash_space(kB);
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();
  EXPECT_EQ(heap_image(*b_), never_crashed);
  expect_homes(1001 + 11 + 12, kOldC);
}

// A checkpoint taken while a prepare is staged (in doubt) must not swallow
// the stage out of the replayable tail: the image captures the heap only,
// so the staged bytes are re-journaled after it and a later COMMIT replay
// still rolls forward. Without that, the replayed commit no-ops and a
// committed write-back is silently lost.
TEST_P(RecoveryTest, CheckpointDuringInDoubtStageKeepsLaterCommit) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    drop_all(MessageType::kWbCommit);  // decision logged, commits lost
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  fault_->disarm();
  // Checkpoint B while its stage is still in doubt.
  b_->run([](Runtime& rt) { rt.checkpoint_now(); });

  // The coordinator's replayed decision log rolls B's stage forward.
  fault_->crash_space(kA);
  ASSERT_TRUE(world_->restart_space(kA).is_ok());
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
  });
  const std::vector<std::uint8_t> committed = heap_image(*b_);

  // Now B itself dies: replay = mid-doubt checkpoint + re-journaled stage
  // + commit. The recovered heap must carry the committed bytes, not the
  // pre-write image the checkpoint alone would restore.
  fault_->crash_space(kB);
  ASSERT_TRUE(world_->restart_space(kB).is_ok());
  rebind_b();
  EXPECT_EQ(heap_image(*b_), committed);
  expect_homes(kNewB, kNewC);
}

// Frame reordering alone must not diverge the world: when a restarted
// space's ordinary traffic overtakes its REJOIN, the homes run the
// implicit (decision-less) cleanup — which must keep acked stages in
// doubt, and the delayed REJOIN, normally a dedup no-op, must still be
// consumed so its logged commit rolls them forward.
TEST_P(RecoveryTest, DelayedRejoinResolvesImplicitCleanupStages) {
  a_->run([&](Runtime& rt) {
    dirty_both_homes(rt);
    drop_all(MessageType::kWbCommit);  // decision logged, commits lost
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
  });
  fault_->disarm();

  // Park every REJOIN on the wire: the announcement is delayed, not lost,
  // while the successor's ordinary traffic races ahead of it.
  FaultOptions opts;
  opts.delay = 1.0;
  opts.delay_window = 100000;
  fault_->target({MessageType::kRejoin});
  fault_->arm(opts);
  fault_->crash_space(kA);
  // Replay succeeds but the announcement cannot land inside its deadline.
  EXPECT_FALSE(world_->restart_space(kA).is_ok());

  // The failed announcement's probes already reached both homes stamped
  // with incarnation 2; drain the implicit cleanup at a safe point. With
  // no decision log in hand the stages must stay in doubt — presuming
  // abort here while a peer that got the REJOIN rolls forward would
  // diverge permanently.
  for (AddressSpace* home : {b_, c_}) {
    home->run([](Runtime& rt) {
      (void)rt.prefetch_many({}, 0);  // safe point: runs poll_failures
      EXPECT_GE(rt.stats().rejoins_served, 1u);
      EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 0u);
      EXPECT_EQ(rt.stats().in_doubt_resolved_abort, 0u);
    });
  }
  // The successor is fully servable while the stages wait.
  expect_homes(kOldB, kOldC);

  // Release the parked REJOINs: the dedup lets the decision log through
  // (the incarnation itself is already known) and the stages roll forward
  // exactly as a timely announcement would have.
  fault_->disarm();
  b_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
    EXPECT_EQ(rt.stats().in_doubt_resolved_abort, 0u);
  });
  c_->run([](Runtime& rt) {
    EXPECT_EQ(rt.stats().in_doubt_resolved_commit, 1u);
  });
  expect_homes(kNewB, kNewC);
}

INSTANTIATE_TEST_SUITE_P(ShipModes, RecoveryTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Delta" : "FullImage";
                         });

// An acknowledged write-back is journaled at the home (PREPARE, then
// COMMIT), so a crash after the ack must not replay the heap back to the
// pre-write image.
TEST(RecoveryWritebackTest, AckedWritebackSurvivesHomeCrash) {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.closure_bytes = 0;
  options.fault_injection = true;
  options.timeouts = TimeoutConfig::aggressive();
  options.recovery = true;
  World world(options);
  AddressSpace& a = world.create_space("A");
  AddressSpace& b = world.create_space("B");
  workload::register_list_type(world).status().check();

  ListNode* head = nullptr;
  b.run([&](Runtime& rt) {
    auto built = workload::build_list(rt, 3, [](std::uint32_t i) {
      return static_cast<std::int64_t>(10 + i);
    });
    built.status().check();
    head = built.value();
    rt.checkpoint_now();
  });
  auto bind = [&] {
    b.bind("headB", [&](CallContext&) -> ListNode* { return head; }).check();
    b.bind("sumB",
           [&](CallContext&) -> std::int64_t { return workload::sum_list(head); })
        .check();
  };
  bind();

  a.run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto hb = typed_call<ListNode*>(rt, b.id(), "headB");
    ASSERT_TRUE(hb.is_ok()) << hb.status().to_string();
    ASSERT_TRUE(rt.prefetch(hb.value(), 1 << 16).is_ok());
    hb.value()->value = 1000;
    ASSERT_TRUE(rt.end_session().is_ok());
  });
  const std::vector<std::uint8_t> never_crashed = b.run([](Runtime& rt) {
    RecoveryLog scratch;
    scratch.checkpoint(rt.heap());
    return scratch.snapshot().back().bytes;
  });

  world.fault()->crash_space(b.id());
  ASSERT_TRUE(world.restart_space(b.id()).is_ok());
  bind();
  const std::vector<std::uint8_t> recovered = b.run([](Runtime& rt) {
    RecoveryLog scratch;
    scratch.checkpoint(rt.heap());
    return scratch.snapshot().back().bytes;
  });
  EXPECT_EQ(recovered, never_crashed);
  a.run([&](Runtime& rt) {
    Session session(rt);
    auto sum = typed_call<std::int64_t>(rt, b.id(), "sumB");
    ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
    EXPECT_EQ(sum.value(), 1000 + 11 + 12);
    ASSERT_TRUE(session.end().is_ok());
  });
}

}  // namespace
}  // namespace srpc
