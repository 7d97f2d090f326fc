// Heap arena: the dense ManagedHeap index against an ordered-map reference,
// narrow-pointer placement, retain-freed mode, address determinism across
// heaps and Worlds, and the incarnation hand-over over one shared arena.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/smart_rpc.hpp"
#include "mem/managed_heap.hpp"
#include "types/type_registry.hpp"
#include "workload/tree.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace srpc {
namespace {

using workload::TreeNode;

std::uint64_t addr_of(const void* p) { return reinterpret_cast<std::uint64_t>(p); }

class HeapArenaTest : public ::testing::Test {
 protected:
  HeapArenaTest() : layouts_(registry_) {
    auto node = registry_.declare_struct("ANode");
    node.status().check();
    node_ = node.value();
    registry_
        .define_struct(node_, {{"next", registry_.pointer_to(node_)},
                               {"value", TypeRegistry::scalar_id(ScalarType::kI64)}})
        .check();
  }

  [[nodiscard]] TypeId i64() const { return TypeRegistry::scalar_id(ScalarType::kI64); }
  [[nodiscard]] TypeId i32() const { return TypeRegistry::scalar_id(ScalarType::kI32); }

  TypeRegistry registry_;
  LayoutEngine layouts_;
  TypeId node_ = kInvalidTypeId;
};

// What the reference model remembers of one live allocation.
struct RefRecord {
  std::uint64_t size = 0;
  TypeId type = kInvalidTypeId;
  SpaceId space = kInvalidSpaceId;
  SessionId session = kNoSession;
};
using RefHeap = std::map<std::uint64_t, RefRecord>;

const RefHeap::value_type* ref_find(const RefHeap& ref, std::uint64_t addr) {
  auto it = ref.upper_bound(addr);
  if (it == ref.begin()) return nullptr;
  --it;
  return addr < it->first + it->second.size ? &*it : nullptr;
}

// Some live allocation near `addr` (the next one up, wrapping).
RefHeap::iterator ref_pick(RefHeap& ref, std::uint64_t addr) {
  auto it = ref.lower_bound(addr);
  return it == ref.end() ? ref.begin() : it;
}

void expect_same_find(const ManagedHeap& heap, const RefHeap& ref, std::uint64_t addr) {
  const ManagedHeap::Record* got = heap.find(reinterpret_cast<const void*>(addr));
  const auto* want = ref_find(ref, addr);
  if (want == nullptr) {
    EXPECT_EQ(got, nullptr) << "find(" << addr << ") hit a record the reference lacks";
    return;
  }
  ASSERT_NE(got, nullptr) << "find(" << addr << ") missed";
  EXPECT_EQ(addr_of(got->base), want->first);
  EXPECT_EQ(got->size, want->second.size);
  EXPECT_EQ(got->type, want->second.type);
}

void expect_same_heap(const ManagedHeap& heap, const RefHeap& ref) {
  auto it = ref.begin();
  std::size_t visited = 0;
  heap.for_each([&](const ManagedHeap::Record& r) {
    ++visited;
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(addr_of(r.base), it->first);
    EXPECT_EQ(r.size, it->second.size);
    EXPECT_EQ(r.type, it->second.type);
    EXPECT_EQ(r.owner_space, it->second.space);
    EXPECT_EQ(r.owner_session, it->second.session);
    ++it;
  });
  EXPECT_EQ(visited, ref.size());
  std::uint64_t bytes = 0;
  std::uint64_t session_bytes = 0;
  std::map<SpaceId, std::uint64_t> owned;
  for (const auto& [base, r] : ref) {
    bytes += r.size;
    if (r.session != kNoSession) session_bytes += r.size;
    if (r.space != kInvalidSpaceId) owned[r.space] += r.size;
  }
  EXPECT_EQ(heap.live_allocations(), ref.size());
  EXPECT_EQ(heap.live_bytes(), bytes);
  EXPECT_EQ(heap.session_owned_bytes(), session_bytes);
  for (SpaceId space : {SpaceId{2}, SpaceId{3}}) {
    EXPECT_EQ(heap.owned_bytes(space), owned[space]);
  }
}

TEST_F(HeapArenaTest, MatchesOrderedMapReference) {
  ManagedHeap heap(registry_, layouts_, host_arch(), 1);
  RefHeap ref;
  Rng rng(20240917);
  constexpr int kOps = 24000;
  const SessionId sessions[] = {kNoSession, 10, 11, 12, 13};

  auto arena_lo = [&] { return addr_of(heap.arena().base()); };
  auto arena_hi = [&] { return arena_lo() + heap.arena().used(); };
  // A probe address anywhere in (and just around) the used arena.
  auto probe = [&] {
    return arena_lo() - 16 + rng.next_below(heap.arena().used() + 32);
  };

  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 30 || ref.empty()) {
      // Mixed sizes: a node, short i32 arrays (sizes not a multiple of 8),
      // i64 arrays, and now and then one spanning many index pages.
      TypeId type = node_;
      std::uint32_t count = 1;
      switch (rng.next_below(4)) {
        case 0: break;
        case 1: type = i32(); count = static_cast<std::uint32_t>(rng.next_in(1, 9)); break;
        case 2: type = i64(); count = static_cast<std::uint32_t>(rng.next_in(2, 40)); break;
        default:
          type = i64();
          count = rng.next_bool(0.2) ? static_cast<std::uint32_t>(rng.next_in(64, 700))
                                     : static_cast<std::uint32_t>(rng.next_in(1, 3));
          break;
      }
      auto mem = heap.allocate(type, count);
      ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
      const std::uint64_t base = addr_of(mem.value());
      const ManagedHeap::Record* rec = heap.find_base(base);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(base % 8, 0u);
      EXPECT_GE(base, arena_lo());
      EXPECT_LE(base + rec->size, arena_hi());
      // No overlap with anything live, and zeroed even when reused.
      auto next = ref.lower_bound(base);
      if (next != ref.end()) {
        EXPECT_GE(next->first, base + rec->size);
      }
      if (next != ref.begin()) {
        auto prev = std::prev(next);
        EXPECT_LE(prev->first + prev->second.size, base);
      }
      auto* bytes = static_cast<std::uint8_t*>(mem.value());
      for (std::uint64_t i = 0; i < rec->size; ++i) ASSERT_EQ(bytes[i], 0) << i;
      std::memset(bytes, 0xA5, rec->size);
      ref[base] = RefRecord{rec->size, rec->type};
    } else if (dice < 50) {
      auto it = ref_pick(ref, probe());
      const std::uint64_t base = it->first;
      if (it->second.size > 8) {
        EXPECT_EQ(heap.free(reinterpret_cast<void*>(base + 8)).code(),
                  StatusCode::kNotFound);
      }
      ref.erase(it);
      ASSERT_TRUE(heap.free(reinterpret_cast<void*>(base)).is_ok());
      EXPECT_EQ(heap.free(reinterpret_cast<void*>(base)).code(), StatusCode::kNotFound);
      expect_same_find(heap, ref, base);
    } else if (dice < 70) {
      expect_same_find(heap, ref, probe());
      // Interior and end-of-record addresses of a live allocation.
      auto it = ref_pick(ref, probe());
      expect_same_find(heap, ref, it->first + rng.next_below(it->second.size));
      expect_same_find(heap, ref, it->first + it->second.size - 1);
      expect_same_find(heap, ref, it->first + it->second.size);
    } else if (dice < 80) {
      // Index-page edges: the last byte before, the first byte of, and the
      // second byte of a page.
      const std::uint64_t page = rng.next_below(heap.arena().used() / ManagedHeap::kIndexPage + 2);
      const std::uint64_t edge = arena_lo() + page * ManagedHeap::kIndexPage;
      expect_same_find(heap, ref, edge - 1);
      expect_same_find(heap, ref, edge);
      expect_same_find(heap, ref, edge + 1);
    } else if (dice < 85) {
      const std::uint64_t addr = probe() & ~std::uint64_t{7};
      const ManagedHeap::Record* got = heap.find_base(addr);
      const auto it = ref.find(addr);
      if (it == ref.end()) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->size, it->second.size);
      }
    } else if (dice < 92) {
      auto it = ref_pick(ref, probe());
      const SpaceId space = rng.next_bool(0.5) ? 2 : 3;
      const SessionId session = sessions[rng.next_below(5)];
      ASSERT_TRUE(heap.tag_owner(it->first, space, session).is_ok());
      it->second.space = space;
      it->second.session = session;
      if (it->second.size > 1) {
        EXPECT_EQ(heap.tag_owner(it->first + 1, space, session).code(),
                  StatusCode::kNotFound);
      }
    } else if (dice < 95) {
      const SessionId session = sessions[1 + rng.next_below(4)];
      std::size_t want = 0;
      for (auto& [base, r] : ref) {
        if (r.session != session) continue;
        r.space = kInvalidSpaceId;
        r.session = kNoSession;
        ++want;
      }
      EXPECT_EQ(heap.promote_session(session), want);
    } else if (dice < 98) {
      const SessionId session = sessions[1 + rng.next_below(4)];
      std::uint64_t want = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second.session == session) {
          want += it->second.size;
          it = ref.erase(it);
        } else {
          ++it;
        }
      }
      EXPECT_EQ(heap.reclaim_session(session), want);
    } else if (dice < 99) {
      const SpaceId space = rng.next_bool(0.5) ? 2 : 3;
      std::uint64_t want = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second.space == space) {
          want += it->second.size;
          it = ref.erase(it);
        } else {
          ++it;
        }
      }
      EXPECT_EQ(heap.reclaim_owned_by(space), want);
    } else {
      expect_same_heap(heap, ref);
    }
    ASSERT_EQ(heap.live_bytes(), [&] {
      std::uint64_t bytes = 0;
      for (const auto& [base, r] : ref) bytes += r.size;
      return bytes;
    }()) << "after op " << op;
    if (HasFailure()) return;
  }
  expect_same_heap(heap, ref);
}

TEST_F(HeapArenaTest, PromoteAndReclaimSettleEverySessionRecord) {
  ManagedHeap heap(registry_, layouts_, host_arch(), 1);
  std::vector<std::uint64_t> bases;
  for (int i = 0; i < 6; ++i) bases.push_back(addr_of(heap.allocate(node_).value()));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(heap.tag_owner(bases[i], 2, i < 3 ? 7 : 8).is_ok());
  }
  EXPECT_EQ(heap.promote_session(7), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(heap.find_base(bases[i])->owner_session, kNoSession);
    EXPECT_EQ(heap.find_base(bases[i])->owner_space, kInvalidSpaceId);
  }
  EXPECT_EQ(heap.promote_session(7), 0u);
  const std::uint64_t node_size = heap.find_base(bases[0])->size;
  EXPECT_EQ(heap.session_owned_bytes(), 3 * node_size);
  EXPECT_EQ(heap.reclaim_session(8), 3 * node_size);
  EXPECT_EQ(heap.live_allocations(), 3u);
  EXPECT_EQ(heap.session_owned_bytes(), 0u);
}

TEST_F(HeapArenaTest, NarrowPointerHeapStaysBelow4GiB) {
#if !(defined(__x86_64__) && defined(MAP_32BIT))
  GTEST_SKIP() << "narrow-pointer heaps need MAP_32BIT";
#endif
  ManagedHeap heap(registry_, layouts_, sparc32_arch(), 1);
  Rng rng(5);
  std::vector<void*> live;
  for (int i = 0; i < 2000; ++i) {
    if (!live.empty() && rng.next_bool(0.3)) {
      const std::size_t k = rng.next_below(live.size());
      ASSERT_TRUE(heap.free(live[k]).is_ok());
      live[k] = live.back();
      live.pop_back();
      continue;
    }
    const std::uint32_t count = static_cast<std::uint32_t>(rng.next_in(1, 600));
    auto mem = heap.allocate(rng.next_bool(0.5) ? node_ : i64(), count);
    ASSERT_TRUE(mem.is_ok()) << mem.status().to_string();
    const ManagedHeap::Record* rec = heap.find_base(addr_of(mem.value()));
    ASSERT_NE(rec, nullptr);
    EXPECT_LT(addr_of(rec->base) + rec->size, 1ULL << 32);
    live.push_back(mem.value());
  }
}

TEST_F(HeapArenaTest, RetainFreedNeverReusesAnAddress) {
  ManagedHeap heap(registry_, layouts_, host_arch(), 1);
  heap.set_retain_freed(true);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    auto mem = heap.allocate(i % 3 == 0 ? node_ : i64(), 1 + i % 4);
    ASSERT_TRUE(mem.is_ok());
    EXPECT_TRUE(seen.insert(addr_of(mem.value())).second) << "address reused";
    if (i % 2 == 0) {
      ASSERT_TRUE(heap.free(mem.value()).is_ok());
    }
  }
}

TEST_F(HeapArenaTest, FreedBlockIsReusedForExactSizeOnly) {
  ManagedHeap heap(registry_, layouts_, host_arch(), 1);
  void* a = heap.allocate(i64(), 4).value();
  void* b = heap.allocate(i64(), 4).value();
  ASSERT_TRUE(heap.free(a).is_ok());
  ASSERT_TRUE(heap.free(b).is_ok());
  void* other_size = heap.allocate(i64(), 3).value();
  EXPECT_NE(other_size, a);
  EXPECT_NE(other_size, b);
  EXPECT_EQ(heap.allocate(i64(), 4).value(), b);  // LIFO
  EXPECT_EQ(heap.allocate(i64(), 4).value(), a);
}

TEST_F(HeapArenaTest, SameSequenceGivesSameArenaOffsets) {
  auto offsets = [&] {
    ManagedHeap heap(registry_, layouts_, host_arch(), 1);
    Rng rng(77);
    std::vector<void*> live;
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 3000; ++i) {
      if (!live.empty() && rng.next_bool(0.4)) {
        const std::size_t k = rng.next_below(live.size());
        heap.free(live[k]).check();
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      void* p = heap.allocate(rng.next_bool(0.5) ? node_ : i64(),
                              static_cast<std::uint32_t>(rng.next_in(1, 80)))
                    .value();
      out.push_back(addr_of(p) - addr_of(heap.arena().base()));
      live.push_back(p);
    }
    return out;
  };
  const std::vector<std::uint64_t> first = offsets();
  const std::vector<std::uint64_t> second = offsets();
  EXPECT_EQ(first, second);
}

TEST_F(HeapArenaTest, SuccessorHeapIndexesTheSameArena) {
  HeapArena arena(host_arch());
  ManagedHeap first(registry_, layouts_, host_arch(), 1, arena);
  std::vector<const ManagedHeap::Record*> records;
  for (int i = 0; i < 40; ++i) {
    void* p = first.allocate(i % 2 == 0 ? node_ : i64(), 1 + i * 7).value();
    records.push_back(first.find_base(addr_of(p)));
  }
  ASSERT_TRUE(first.tag_owner(addr_of(records[5]->base), 2, 9).is_ok());
  const std::uint64_t used = arena.used();

  // Restored out of address order: the index inserts below its last block.
  ManagedHeap second(registry_, layouts_, host_arch(), 1, arena);
  second.set_retain_freed(true);
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const ManagedHeap::Record& r = **it;
    ASSERT_TRUE(second.restore(r.base, r.type, r.count, r.size, r.owner_space,
                               r.owner_session)
                    .is_ok());
  }
  EXPECT_EQ(second.live_bytes(), first.live_bytes());
  for (const ManagedHeap::Record* r : records) {
    const ManagedHeap::Record* got = second.find(r->base + r->size - 1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->base, r->base);
    EXPECT_EQ(second.find_base(addr_of(r->base))->owner_session, r->owner_session);
  }
  std::uint64_t last = 0;
  second.for_each([&](const ManagedHeap::Record& r) {
    EXPECT_GT(addr_of(r.base), last);
    last = addr_of(r.base);
  });
  EXPECT_EQ(second.restore(records[3]->base, records[3]->type, 1, records[3]->size,
                           kInvalidSpaceId, kNoSession)
                .code(),
            StatusCode::kAlreadyExists);
  std::uint64_t outside = 0;
  EXPECT_EQ(second.restore(&outside, i64(), 1, 8, kInvalidSpaceId, kNoSession).code(),
            StatusCode::kInvalidArgument);

  // New allocations continue past the predecessor's bump pointer.
  void* fresh = second.allocate(node_).value();
  EXPECT_GE(addr_of(fresh), addr_of(arena.base()) + used);
  EXPECT_EQ(second.reclaim_session(9), records[5]->size);
  EXPECT_EQ(second.find(records[5]->base), nullptr);
}

#if defined(__SANITIZE_ADDRESS__)
TEST_F(HeapArenaTest, FreedAndUncarvedBytesArePoisoned) {
  ManagedHeap heap(registry_, layouts_, host_arch(), 1);
  auto* p = static_cast<std::uint8_t*>(heap.allocate(i64(), 4).value());
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 31));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 32));  // past the bump pointer
  ASSERT_TRUE(heap.free(p).is_ok());
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 31));
  EXPECT_EQ(heap.allocate(i64(), 4).value(), p);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
}
#endif

// The same tree sessions, run in two Worlds built one after the other in one
// process: heap addresses depend only on the allocation sequence, so the
// graph payloads, the wire bytes and the virtual clock all match.
struct WorldFigures {
  double virtual_seconds = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t messages = 0;
};

WorldFigures run_tree_sessions() {
  constexpr std::uint32_t kNodes = 2047;
  World world;
  AddressSpace& ground = world.create_space("ground");
  AddressSpace& home = world.create_space("home");
  workload::register_tree_type(world).status().check();
  home.bind("search", [](CallContext&, TreeNode* root, std::uint64_t seed) {
        return workload::walk_random_paths(root, 4, seed);
      }).check();
  TreeNode* home_root = nullptr;
  home.bind("root", [&](CallContext&) { return home_root; }).check();
  world.start().check();
  home.run([&](Runtime& rt) {
    home_root = workload::build_complete_tree(rt, kNodes).value();
    return 0;
  });
  ground.run([&](Runtime& rt) {
    TreeNode* local_root = workload::build_complete_tree(rt, kNodes).value();
    for (std::uint64_t op = 0; op < 6; ++op) {
      Session search(rt);
      search.call<std::int64_t>(home.id(), "search", local_root, op).status().check();
      search.end().check();

      // Update: bump a random path of the home tree and hang a fresh
      // extended_malloc record off its leaf.
      Session update(rt);
      TreeNode* node = update.call<TreeNode*>(home.id(), "root").value();
      Rng rng(op);
      while (node->left != nullptr) {
        node->data += 1;
        node = rng.next_bool(0.5) ? node->left : node->right;
      }
      TreeNode* record = update.extended_malloc<TreeNode>(home.id()).value();
      record->data = static_cast<std::int64_t>(op);
      node->left = record;
      update.end().check();
    }
    return 0;
  });
  WorldFigures out;
  out.virtual_seconds = world.virtual_seconds();
  out.wire_bytes = world.net_stats().wire_bytes;
  out.messages = world.net_stats().messages;
  return out;
}

TEST(HeapArenaWorldTest, SecondWorldReproducesFigures) {
  const WorldFigures first = run_tree_sessions();
  const WorldFigures second = run_tree_sessions();
  EXPECT_GT(first.wire_bytes, 0u);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.wire_bytes, second.wire_bytes);
  EXPECT_EQ(first.virtual_seconds, second.virtual_seconds);
}

}  // namespace
}  // namespace srpc
