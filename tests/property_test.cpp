// Property sweeps: for randomly generated structures and access patterns,
// executing remotely through the smart-RPC cache must be observationally
// identical to executing locally — reads return the same values, and after
// the session every write has landed in the home heap.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/smart_rpc.hpp"
#include "workload/access_pattern.hpp"
#include "workload/graph.hpp"
#include "workload/list.hpp"
#include "workload/tree.hpp"

namespace srpc {
namespace {

using workload::GraphNode;
using workload::ListNode;
using workload::TreeNode;

WorldOptions fast_world() {
  WorldOptions options;
  options.cost = CostModel::zero();
  options.cache.page_count = 8192;
  return options;
}

// ---------------------------------------------------------------------------
// Random graphs: remote reachable-sum == local reachable-sum.
// ---------------------------------------------------------------------------

struct GraphCase {
  std::uint32_t nodes;
  double edge_probability;
  bool cycles;
  std::uint64_t seed;
};

class GraphEquivalence : public ::testing::TestWithParam<GraphCase> {};

TEST_P(GraphEquivalence, RemoteTraversalMatchesLocal) {
  const GraphCase param = GetParam();
  World world(fast_world());
  auto& caller = world.create_space("caller");
  auto& callee = world.create_space("callee");
  workload::register_graph_type(world).status().check();

  callee
      .bind("sum",
            [](CallContext&, GraphNode* root) -> std::int64_t {
              return workload::sum_reachable(root);
            })
      .check();

  caller.run([&](Runtime& rt) {
    workload::GraphSpec spec;
    spec.node_count = param.nodes;
    spec.edge_probability = param.edge_probability;
    spec.allow_cycles = param.cycles;
    spec.seed = param.seed;
    auto root = workload::build_graph(rt, spec);
    root.status().check();
    const std::int64_t expected = workload::sum_reachable(root.value());

    Session session(rt);
    auto sum = session.call<std::int64_t>(callee.id(), "sum", root.value());
    ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
    EXPECT_EQ(sum.value(), expected);
    ASSERT_TRUE(session.end().is_ok());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GraphEquivalence,
    ::testing::Values(GraphCase{1, 0.0, false, 1}, GraphCase{2, 1.0, true, 2},
                      GraphCase{17, 0.3, false, 3}, GraphCase{64, 0.5, true, 4},
                      GraphCase{64, 0.9, true, 5}, GraphCase{200, 0.2, true, 6},
                      GraphCase{333, 0.6, false, 7}, GraphCase{500, 0.4, true, 8}));

// ---------------------------------------------------------------------------
// Random read/write patterns on a remote array of list nodes: the callee
// replays the script against remote data; the test replays it locally and
// compares both the read log and the final home state.
// ---------------------------------------------------------------------------

struct PatternCase {
  std::uint32_t targets;
  std::uint32_t ops;
  double write_ratio;
  std::uint64_t seed;
};

class PatternEquivalence : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternEquivalence, WritesLandAndReadsMatch) {
  const PatternCase param = GetParam();
  World world(fast_world());
  auto& caller = world.create_space("caller");
  auto& callee = world.create_space("callee");
  workload::register_list_type(world).status().check();

  // The callee interprets the op script against the remote list: target
  // selection by index walk (lists have no random access — this also makes
  // every op traverse swizzled pointers).
  callee
      .bind("replay",
            [](CallContext&, ListNode* head, std::uint32_t op_count,
               std::uint32_t target_count, std::uint64_t seed) -> std::int64_t {
              const auto pattern = workload::make_pattern(
                  op_count, target_count, /*write_ratio=*/0.5, seed);
              // Unsigned: the hash wraps, and signed overflow is undefined.
              std::uint64_t read_hash = 0;
              for (const auto& op : pattern.ops) {
                ListNode* n = head;
                for (std::uint32_t i = 0; i < op.target && n != nullptr; ++i) {
                  n = n->next;
                }
                if (n == nullptr) continue;
                if (op.kind == workload::OpKind::kWrite) {
                  n->value += op.operand;
                } else {
                  read_hash = read_hash * 31 +
                              static_cast<std::uint64_t>(n->value);
                }
              }
              return static_cast<std::int64_t>(read_hash);
            })
      .check();

  caller.run([&](Runtime& rt) {
    auto head = workload::build_list(rt, param.targets, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i) * 11 - 5;
    });
    head.status().check();

    // Local oracle over a plain copy.
    std::vector<std::int64_t> oracle(param.targets);
    {
      std::uint32_t i = 0;
      for (ListNode* n = head.value(); n != nullptr; n = n->next) {
        oracle[i++] = n->value;
      }
    }
    const auto pattern =
        workload::make_pattern(param.ops, param.targets, 0.5, param.seed);
    std::uint64_t expected_hash = 0;
    for (const auto& op : pattern.ops) {
      if (op.target >= param.targets) continue;
      if (op.kind == workload::OpKind::kWrite) {
        oracle[op.target] += op.operand;
      } else {
        expected_hash =
            expected_hash * 31 + static_cast<std::uint64_t>(oracle[op.target]);
      }
    }

    Session session(rt);
    auto hash = session.call<std::int64_t>(callee.id(), "replay", head.value(),
                                           param.ops, param.targets, param.seed);
    ASSERT_TRUE(hash.is_ok()) << hash.status().to_string();
    EXPECT_EQ(hash.value(), static_cast<std::int64_t>(expected_hash));
    ASSERT_TRUE(session.end().is_ok());

    // After the session every write has landed at home.
    std::uint32_t i = 0;
    for (ListNode* n = head.value(); n != nullptr; n = n->next, ++i) {
      ASSERT_EQ(n->value, oracle[i]) << "node " << i;
    }
    EXPECT_EQ(i, param.targets);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PatternEquivalence,
    ::testing::Values(PatternCase{1, 10, 0.5, 11}, PatternCase{8, 50, 0.5, 12},
                      PatternCase{32, 200, 0.5, 13}, PatternCase{64, 400, 0.5, 14},
                      PatternCase{128, 300, 0.5, 15},
                      PatternCase{256, 500, 0.5, 16}));

// ---------------------------------------------------------------------------
// Random trees with random visit limits across closure sizes: result
// equivalence must hold regardless of the eagerness knob.
// ---------------------------------------------------------------------------

class ClosureEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosureEquivalence, VisitSumIndependentOfClosureSize) {
  World world(fast_world());
  auto& caller = world.create_space("caller");
  auto& callee = world.create_space("callee");
  workload::register_tree_type(world).status().check();
  callee
      .bind("visit",
            [](CallContext&, TreeNode* root, std::uint64_t limit) -> std::int64_t {
              return workload::visit_prefix(root, limit);
            })
      .check();

  caller.run([&](Runtime& rt) {
    rt.cache().set_closure_bytes(GetParam()).check();
    callee.run([&](Runtime& crt) { crt.cache().set_closure_bytes(GetParam()).check(); });
    auto root = workload::build_complete_tree(rt, 127);
    root.status().check();
    Rng rng(GetParam() + 17);
    for (int round = 0; round < 4; ++round) {
      const auto limit = rng.next_below(128);
      const std::int64_t expected = workload::visit_prefix(root.value(), limit);
      Session session(rt);
      auto sum =
          session.call<std::int64_t>(callee.id(), "visit", root.value(), limit);
      ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
      EXPECT_EQ(sum.value(), expected) << "limit " << limit;
      ASSERT_TRUE(session.end().is_ok());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureEquivalence,
                         ::testing::Values(0, 64, 256, 1024, 4096, 1 << 20));

// ---------------------------------------------------------------------------
// Multi-space sweep: a random sequence of calls fanned across several
// spaces, each mutating the shared list; after every RETURN the home must
// equal the local oracle (the travelling modified set at work).
// ---------------------------------------------------------------------------

class MultiSpaceEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiSpaceEquivalence, RandomCallSequencesStayCoherent) {
  World world(fast_world());
  auto& ground = world.create_space("ground");
  std::vector<AddressSpace*> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(&world.create_space("worker" + std::to_string(i)));
  }
  workload::register_list_type(world).status().check();

  for (AddressSpace* w : workers) {
    w->bind("mutate",
            [](CallContext&, ListNode* head, std::uint32_t index,
               std::int64_t delta) -> std::int64_t {
              ListNode* n = head;
              for (std::uint32_t i = 0; i < index && n != nullptr; ++i) n = n->next;
              if (n == nullptr) return -1;
              n->value += delta;
              return n->value;
            })
        .check();
  }

  ground.run([&](Runtime& rt) {
    constexpr std::uint32_t kLength = 24;
    auto head = workload::build_list(rt, kLength, [](std::uint32_t i) {
      return static_cast<std::int64_t>(i);
    });
    head.status().check();
    std::vector<std::int64_t> oracle(kLength);
    for (std::uint32_t i = 0; i < kLength; ++i) oracle[i] = i;

    Rng rng(GetParam());
    Session session(rt);
    for (int step = 0; step < 40; ++step) {
      AddressSpace* target = workers[rng.next_below(workers.size())];
      const auto index = static_cast<std::uint32_t>(rng.next_below(kLength));
      const std::int64_t delta = rng.next_in(-50, 50);
      auto value = session.call<std::int64_t>(target->id(), "mutate", head.value(),
                                              index, delta);
      ASSERT_TRUE(value.is_ok()) << value.status().to_string();
      oracle[index] += delta;
      ASSERT_EQ(value.value(), oracle[index]) << "step " << step;
    }
    ASSERT_TRUE(session.end().is_ok());

    std::uint32_t i = 0;
    for (ListNode* n = head.value(); n != nullptr; n = n->next, ++i) {
      ASSERT_EQ(n->value, oracle[i]) << "node " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiSpaceEquivalence,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace srpc
