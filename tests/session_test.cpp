// RPC session semantics (paper §3.1): ground-thread bracketing, lifecycle
// errors, invalidation boundaries, and sequential sessions.
#include <gtest/gtest.h>

#include "core/smart_rpc.hpp"
#include "workload/list.hpp"

namespace srpc {
namespace {

using workload::ListNode;

WorldOptions fast_world() {
  WorldOptions options;
  options.cost = CostModel::zero();
  return options;
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : world_(fast_world()) {
    a_ = &world_.create_space("A");
    b_ = &world_.create_space("B");
    workload::register_list_type(world_).status().check();
    b_->bind("sum",
             [](CallContext&, ListNode* head) -> std::int64_t {
               return workload::sum_list(head);
             })
        .check();
  }

  World world_;
  AddressSpace* a_ = nullptr;
  AddressSpace* b_ = nullptr;
};

TEST_F(SessionTest, BeginTwiceFails) {
  a_->run([&](Runtime& rt) {
    ASSERT_TRUE(rt.begin_session().is_ok());
    auto second = rt.begin_session();
    ASSERT_FALSE(second.is_ok());
    EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(rt.end_session().is_ok());

  });
}

TEST_F(SessionTest, EndWithoutBeginFails) {
  a_->run([&](Runtime& rt) {
    auto ended = rt.end_session();
    ASSERT_FALSE(ended.is_ok());
    EXPECT_EQ(ended.code(), StatusCode::kFailedPrecondition);

  });
}

TEST_F(SessionTest, SessionIdsAreUniquePerGround) {
  a_->run([&](Runtime& rt) {
    auto s1 = rt.begin_session();
    ASSERT_TRUE(s1.is_ok());
    ASSERT_TRUE(rt.end_session().is_ok());
    auto s2 = rt.begin_session();
    ASSERT_TRUE(s2.is_ok());
    EXPECT_NE(s1.value(), s2.value());
    ASSERT_TRUE(rt.end_session().is_ok());

  });
}

TEST_F(SessionTest, DestructorEndsAnOpenSession) {
  a_->run([&](Runtime& rt) {
    {
      Session session(rt);
      EXPECT_NE(rt.current_session(), kNoSession);
      // no explicit end()
    }
    EXPECT_EQ(rt.current_session(), kNoSession);

  });
}

TEST_F(SessionTest, SequentialSessionsStartFromCleanCaches) {
  b_->bind("give",
           [](CallContext& ctx, std::int32_t n) -> ListNode* {
             auto head = workload::build_list(
                 ctx.runtime, static_cast<std::uint32_t>(n),
                 [](std::uint32_t i) { return static_cast<std::int64_t>(i); });
             head.status().check();
             return head.value();
           })
      .check();

  a_->run([&](Runtime& rt) {
    for (int round = 0; round < 3; ++round) {
      Session session(rt);
      auto head = session.call<ListNode*>(b_->id(), "give", 5);
      ASSERT_TRUE(head.is_ok());
      EXPECT_EQ(workload::sum_list(head.value()), 10);
      ASSERT_TRUE(session.end().is_ok());
      EXPECT_EQ(rt.cache().table().size(), 0u);
    }

  });
}

TEST_F(SessionTest, MetricsSeriesCountStaysConstantAcrossSessions) {
  const auto series = [](Runtime& rt) {
    (void)rt.metrics_json();  // folds the stats structs into the registry
    const MetricsRegistry& m = rt.metrics();
    return m.counters().size() + m.gauges().size() + m.histograms().size();
  };
  ListNode* head = nullptr;
  const auto run_sessions = [&](Runtime& rt, int n) {
    for (int i = 0; i < n; ++i) {
      Session session(rt);
      ASSERT_TRUE(session.call<std::int64_t>(b_->id(), "sum", head).is_ok());
      ASSERT_TRUE(session.end().is_ok());
    }
  };
  std::size_t a_before = 0;
  std::size_t b_before = 0;
  a_->run([&](Runtime& rt) {
    auto list = workload::build_list(rt, 4, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    ASSERT_TRUE(list.is_ok());
    head = list.value();
    run_sessions(rt, 3);
    a_before = series(rt);
  });
  b_->run([&](Runtime& rt) { b_before = series(rt); });
  a_->run([&](Runtime& rt) {
    run_sessions(rt, 100);
    EXPECT_EQ(series(rt), a_before);
    EXPECT_EQ(rt.metrics().histograms().at("session.commit_ns").count(), 103u);
  });
  b_->run([&](Runtime& rt) { EXPECT_EQ(series(rt), b_before); });
}

TEST_F(SessionTest, CrossSessionRemotePointerFaultsAreDetected) {
  ListNode* stale = nullptr;
  b_->bind("give_one",
           [](CallContext& ctx, std::int32_t) -> ListNode* {
             auto head = workload::build_list(ctx.runtime, 1, [](std::uint32_t) {
               return std::int64_t{9};
             });
             head.status().check();
             return head.value();
           })
      .check();
  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto head = session.call<ListNode*>(b_->id(), "give_one", 0);
    ASSERT_TRUE(head.is_ok());
    stale = head.value();
    EXPECT_EQ(stale->value, 9);
    ASSERT_TRUE(session.end().is_ok());

    // "The remote pointer is effective only within the session; after the
    // RPC session, the remote pointer has no meaning" (§3.1). The location
    // is protected again and the fault handler refuses to resolve it.
    EXPECT_FALSE(
        rt.cache().on_fault(static_cast<void*>(stale), FaultAccess::kRead));

  });
}

TEST_F(SessionTest, CallsRequireDistinctTargetSpace) {
  a_->run([&](Runtime& rt) {
    Session session(rt);
    auto self_call = typed_call<std::int64_t>(rt, rt.id(), "sum",
                                              static_cast<ListNode*>(nullptr));
    ASSERT_FALSE(self_call.is_ok());
    EXPECT_EQ(self_call.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(session.end().is_ok());

  });
}

TEST_F(SessionTest, ArgumentSignatureMismatchIsReported) {
  a_->run([&](Runtime& rt) {
    Session session(rt);
    // "sum" expects one pointer; send an extra argument.
    auto wrong = session.call<std::int64_t>(b_->id(), "sum",
                                            static_cast<ListNode*>(nullptr), 5);
    ASSERT_FALSE(wrong.is_ok());
    EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(session.end().is_ok());

  });
}

TEST_F(SessionTest, OverlappingSessionsAreRefused) {
  // Ground X's session leaves cached data in B; ground Y's call into B
  // must be refused until X's session ends (one session at a time, §3.1).
  AddressSpace& y = world_.create_space("Y");
  b_->bind("give",
           [](CallContext& ctx, std::int32_t n) -> ListNode* {
             auto head = workload::build_list(
                 ctx.runtime, static_cast<std::uint32_t>(n),
                 [](std::uint32_t) { return std::int64_t{1}; });
             head.status().check();
             return head.value();
           })
      .check();
  // X caches B-homed data (and B itself stays clean) — instead make B the
  // holder: B caches X-homed data by serving a call with a pointer arg.
  b_->bind("hold",
           [](CallContext&, ListNode* head) -> std::int64_t {
             return workload::sum_list(head);  // B now caches X's list
           })
      .check();

  // Phase 1 (ground A): open a session and make B cache A's data.
  a_->run([&](Runtime& rt) {
    auto head = workload::build_list(rt, 4, [](std::uint32_t) { return std::int64_t{2}; });
    head.status().check();
    ASSERT_TRUE(rt.begin_session().is_ok());
    ASSERT_TRUE(typed_call<std::int64_t>(rt, b_->id(), "hold", head.value()).is_ok());
  });

  // Phase 2 (ground Y, while A's session is open): refused by B, and Y's
  // session-end invalidation must NOT disturb A's session (it is scoped).
  y.run([&](Runtime& yrt) {
    Session other(yrt);
    auto refused = other.call<ListNode*>(b_->id(), "give", 1);
    ASSERT_FALSE(refused.is_ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(other.end().is_ok());
  });

  // Phase 3: A's session still works and ends cleanly...
  a_->run([&](Runtime& rt) {
    EXPECT_NE(rt.current_session(), kNoSession);
    ASSERT_TRUE(rt.end_session().is_ok());
  });

  // ...after which Y can use B freely.
  y.run([&](Runtime& yrt) {
    Session other(yrt);
    auto allowed = other.call<ListNode*>(b_->id(), "give", 1);
    EXPECT_TRUE(allowed.is_ok()) << allowed.status().to_string();
    ASSERT_TRUE(other.end().is_ok());
  });
}

TEST_F(SessionTest, HandlerExceptionsDoNotExist_ButErrorsPropagate) {
  b_->bind("fail",
           [](CallContext&, std::int32_t) -> std::int32_t { return 7; })
      .check();
  a_->run([&](Runtime& rt) {
    Session session(rt);
    // Wrong result type expectation: the reply decodes short and errors.
    auto wrong = session.call<std::string>(b_->id(), "fail", 1);
    ASSERT_FALSE(wrong.is_ok());
    ASSERT_TRUE(session.end().is_ok());

  });
}

}  // namespace
}  // namespace srpc
