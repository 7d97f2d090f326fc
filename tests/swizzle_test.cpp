// Long pointers and the data allocation table (paper §3.2, Table 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "swizzle/allocation_table.hpp"
#include "swizzle/long_pointer.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {
namespace {

TEST(LongPointer, NullAndEquality) {
  EXPECT_TRUE(LongPointer::null().is_null());
  LongPointer a{1, 0x1000, 64};
  LongPointer b{1, 0x1000, 64};
  LongPointer c{2, 0x1000, 64};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a.is_null());
}

TEST(LongPointer, WireRoundTrip) {
  ByteBuffer buf;
  xdr::Encoder enc(buf);
  LongPointer p{42, 0xDEADBEEFCAFEULL, 77};
  encode_long_pointer(enc, p);
  EXPECT_EQ(buf.size(), kLongPointerWireSize);
  xdr::Decoder dec(buf);
  auto out = decode_long_pointer(dec);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), p);
}

TEST(LongPointer, HashDistinguishesComponents) {
  LongPointerHash hash;
  LongPointer a{1, 0x1000, 64};
  LongPointer b{1, 0x1008, 64};
  EXPECT_NE(hash(a), hash(b));
}

class AllocationTableTest : public ::testing::Test {
 protected:
  // Builds an entry at a fake local address.
  static AllocationEntry entry(SpaceId space, std::uint64_t home, TypeId type,
                               PageIndex page, std::uint32_t offset,
                               std::uint32_t size, std::uint64_t local) {
    AllocationEntry e;
    e.pointer = {space, home, type};
    e.page = page;
    e.offset = offset;
    e.size = size;
    e.local = reinterpret_cast<std::uint8_t*>(local);
    return e;
  }

  DataAllocationTable table_;
};

// Reproduces the structure of the paper's Table 1: two pointers A and B
// swizzled into page 5 at distinct offsets.
TEST_F(AllocationTableTest, PaperTableOne) {
  const auto a = entry(1, 0xA000, 64, 5, 0, 24, 0x500000);
  const auto b = entry(1, 0xB000, 64, 5, 24, 24, 0x500018);
  ASSERT_TRUE(table_.insert(a).is_ok());
  ASSERT_TRUE(table_.insert(b).is_ok());

  auto on_page = table_.entries_on_page(5);
  ASSERT_EQ(on_page.size(), 2u);
  EXPECT_EQ(on_page[0]->pointer.address, 0xA000u);
  EXPECT_EQ(on_page[0]->offset, 0u);
  EXPECT_EQ(on_page[1]->pointer.address, 0xB000u);
  EXPECT_EQ(on_page[1]->offset, 24u);
  EXPECT_TRUE(table_.entries_on_page(4).empty());
}

TEST_F(AllocationTableTest, ForwardAndReverseLookups) {
  const auto a = entry(1, 0xA000, 64, 0, 0, 24, 0x500000);
  ASSERT_TRUE(table_.insert(a).is_ok());

  const AllocationEntry* found = table_.find({1, 0xA000, 64});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->local, reinterpret_cast<std::uint8_t*>(0x500000));

  // Identity ignores the type component.
  EXPECT_NE(table_.find({1, 0xA000, 99}), nullptr);
  EXPECT_EQ(table_.find({2, 0xA000, 64}), nullptr);

  // Reverse: base, interior, and out-of-range.
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x500000)), found);
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x500017)), found);
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x500018)), nullptr);
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x4FFFFF)), nullptr);
}

TEST_F(AllocationTableTest, HomeIntervalLookupForInteriorPointers) {
  const auto a = entry(1, 0xA000, 64, 0, 0, 64, 0x500000);
  ASSERT_TRUE(table_.insert(a).is_ok());
  EXPECT_NE(table_.find_containing_home(1, 0xA000), nullptr);
  EXPECT_NE(table_.find_containing_home(1, 0xA03F), nullptr);
  EXPECT_EQ(table_.find_containing_home(1, 0xA040), nullptr);
  EXPECT_EQ(table_.find_containing_home(2, 0xA000), nullptr);
}

TEST_F(AllocationTableTest, RejectsOverlapsAndDuplicates) {
  ASSERT_TRUE(table_.insert(entry(1, 0xA000, 64, 0, 0, 24, 0x500000)).is_ok());
  // Same long pointer again.
  EXPECT_EQ(table_.insert(entry(1, 0xA000, 64, 1, 0, 24, 0x600000)).code(),
            StatusCode::kAlreadyExists);
  // Overlapping local range.
  EXPECT_EQ(table_.insert(entry(1, 0xC000, 64, 0, 8, 24, 0x500008)).code(),
            StatusCode::kAlreadyExists);
  // Overlapping home range (same space).
  EXPECT_EQ(table_.insert(entry(1, 0xA008, 64, 1, 0, 24, 0x600000)).code(),
            StatusCode::kAlreadyExists);
  // Same home address range in a different space is fine.
  EXPECT_TRUE(table_.insert(entry(2, 0xA008, 64, 1, 0, 24, 0x600000)).is_ok());
}

TEST_F(AllocationTableTest, RebindProvisionalIdentity) {
  const std::uint64_t provisional = (1ULL << 63) | 7;
  ASSERT_TRUE(table_.insert(entry(3, provisional, 64, 0, 0, 24, 0x500000)).is_ok());
  ASSERT_TRUE(table_.rebind({3, provisional, 64}, {3, 0xBEEF, 64}).is_ok());
  EXPECT_EQ(table_.find({3, provisional, 64}), nullptr);
  const AllocationEntry* found = table_.find({3, 0xBEEF, 64});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->local, reinterpret_cast<std::uint8_t*>(0x500000));
  // Reverse map still works after rebinding.
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x500010)), found);
}

TEST_F(AllocationTableTest, RemoveDropsAllIndexes) {
  ASSERT_TRUE(table_.insert(entry(1, 0xA000, 64, 5, 0, 24, 0x500000)).is_ok());
  ASSERT_TRUE(table_.remove({1, 0xA000, 64}).is_ok());
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.find({1, 0xA000, 64}), nullptr);
  EXPECT_EQ(table_.find_by_local(reinterpret_cast<void*>(0x500000)), nullptr);
  EXPECT_TRUE(table_.entries_on_page(5).empty());
  // The local range can be reused afterwards.
  EXPECT_TRUE(table_.insert(entry(2, 0xB000, 64, 5, 0, 24, 0x500000)).is_ok());
}

TEST_F(AllocationTableTest, MultiPageEntriesIndexEveryPage) {
  auto big = entry(1, 0xA000, 64, 2, 0, 24, 0x500000);
  big.size = 4096 * 3;
  ASSERT_TRUE(table_.insert(big, /*page_count=*/3).is_ok());
  EXPECT_EQ(table_.entries_on_page(2).size(), 1u);
  EXPECT_EQ(table_.entries_on_page(3).size(), 1u);
  EXPECT_EQ(table_.entries_on_page(4).size(), 1u);
  EXPECT_TRUE(table_.entries_on_page(5).empty());
}

TEST_F(AllocationTableTest, ClearEmptiesTable) {
  ASSERT_TRUE(table_.insert(entry(1, 0xA000, 64, 0, 0, 24, 0x500000)).is_ok());
  table_.clear();
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.find({1, 0xA000, 64}), nullptr);
}

// Reference table over ordered maps: the same contract, written for
// clarity. Entries are keyed by home identity (space, base address).
class ReferenceTable {
 public:
  struct Stored {
    AllocationEntry entry;
    std::uint32_t page_count;
  };
  using Key = std::pair<SpaceId, std::uint64_t>;

  StatusCode insert(const AllocationEntry& e, std::uint32_t page_count) {
    if (e.pointer.is_null() || e.local == nullptr || e.size == 0 || page_count == 0) {
      return StatusCode::kInvalidArgument;
    }
    for (const auto& [key, s] : entries_) {
      const AllocationEntry& o = s.entry;
      const bool same_identity = key == Key{e.pointer.space, e.pointer.address};
      const bool local_overlap = o.local < e.local + e.size && e.local < o.local + o.size;
      const bool home_overlap = o.pointer.space == e.pointer.space &&
                                o.pointer.address < e.pointer.address + e.size &&
                                e.pointer.address < o.pointer.address + o.size;
      if (same_identity || local_overlap || home_overlap) return StatusCode::kAlreadyExists;
    }
    entries_[{e.pointer.space, e.pointer.address}] = {e, page_count};
    return StatusCode::kOk;
  }

  const Stored* find(SpaceId space, std::uint64_t address) const {
    auto it = entries_.find({space, address});
    return it == entries_.end() ? nullptr : &it->second;
  }

  const Stored* containing_home(SpaceId space, std::uint64_t addr) const {
    for (const auto& [key, s] : entries_) {
      if (key.first == space && key.second <= addr && addr < key.second + s.entry.size) {
        return &s;
      }
    }
    return nullptr;
  }

  const Stored* containing_local(std::uintptr_t addr) const {
    for (const auto& [key, s] : entries_) {
      const auto base = reinterpret_cast<std::uintptr_t>(s.entry.local);
      if (base <= addr && addr < base + s.entry.size) return &s;
    }
    return nullptr;
  }

  std::vector<AllocationEntry> on_page(PageIndex page) const {
    std::vector<AllocationEntry> out;
    for (const auto& [key, s] : entries_) {
      if (s.entry.page <= page && page < s.entry.page + s.page_count) out.push_back(s.entry);
    }
    std::sort(out.begin(), out.end(), [](const AllocationEntry& a, const AllocationEntry& b) {
      return a.local < b.local;
    });
    return out;
  }

  StatusCode rebind(const LongPointer& provisional, const LongPointer& actual) {
    auto it = entries_.find({provisional.space, provisional.address});
    if (it == entries_.end() || it->second.entry.pointer.type != provisional.type) {
      return StatusCode::kNotFound;
    }
    auto held = entries_.find({actual.space, actual.address});
    if (held != entries_.end() && (held != it || held->second.entry.pointer.type == actual.type)) {
      return StatusCode::kAlreadyExists;
    }
    Stored moved = it->second;
    moved.entry.pointer = actual;
    entries_.erase(it);
    entries_[{actual.space, actual.address}] = moved;
    return StatusCode::kOk;
  }

  StatusCode remove(const LongPointer& p) {
    auto it = entries_.find({p.space, p.address});
    if (it == entries_.end() || it->second.entry.pointer.type != p.type) {
      return StatusCode::kNotFound;
    }
    entries_.erase(it);
    return StatusCode::kOk;
  }

  // True if [address, +size) in `space` overlaps no entry other than `self`.
  bool home_free(SpaceId space, std::uint64_t address, std::uint64_t size,
                 const Stored* self) const {
    for (const auto& [key, s] : entries_) {
      if (&s != self && key.first == space && key.second < address + size &&
          address < key.second + s.entry.size) {
        return false;
      }
    }
    return true;
  }

  const std::map<Key, Stored>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::map<Key, Stored> entries_;
};

bool same_entry(const AllocationEntry* got, const ReferenceTable::Stored* want) {
  if (got == nullptr || want == nullptr) return got == nullptr && want == nullptr;
  const AllocationEntry& w = want->entry;
  return got->pointer == w.pointer && got->page == w.page && got->offset == w.offset &&
         got->size == w.size && got->local == w.local;
}

// Seeded differential run: random inserts (small, window-crossing and
// multi-page), lookups at entry and window edges, rebinds, removes and
// clears, every result compared with the reference.
TEST(AllocationTableDifferential, MatchesOrderedMapReference) {
  constexpr std::uint64_t kSlab = 0x7F0000000000ULL;  // fake cache arena
  constexpr std::uint64_t kSlabBytes = 32 * 4096;
  constexpr std::uint64_t kHomeBase = 0x100000;
  constexpr std::uint64_t kHomeBytes = 16 * 4096;
  constexpr std::uint64_t kProvisional = 1ULL << 63;
  Rng rng(20260417);
  DataAllocationTable table;
  ReferenceTable ref;
  std::size_t inserted = 0;
  std::size_t rebound = 0;
  std::size_t removed = 0;
  std::size_t cycles = 0;
  std::size_t peak = 0;

  auto random_size = [&]() -> std::uint32_t {
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6) return static_cast<std::uint32_t>(8 * rng.next_in(1, 8));
    if (kind < 9) return static_cast<std::uint32_t>(8 * rng.next_in(9, 200));
    return static_cast<std::uint32_t>(4096 * rng.next_in(1, 3) + 8 * rng.next_below(64));
  };
  // Offsets near a 4 KiB boundary make ranges cross windows.
  auto random_offset = [&](std::uint64_t span) -> std::uint64_t {
    if (rng.next_bool(0.3)) {
      const std::uint64_t edge = 4096 * rng.next_in(1, static_cast<std::int64_t>(span / 4096 - 1));
      return edge - 8 * rng.next_in(1, 8);
    }
    return 8 * rng.next_below(span / 8);
  };
  auto random_type = [&]() { return static_cast<TypeId>(64 + rng.next_below(2)); };
  auto random_live = [&]() -> std::optional<ReferenceTable::Stored> {
    if (ref.entries().empty()) return std::nullopt;
    auto it = ref.entries().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(ref.entries().size())));
    return it->second;
  };
  // Probe points around a range: its edges and the window edges inside it.
  auto probes = [&](std::uint64_t base, std::uint64_t size) {
    std::vector<std::uint64_t> out = {base, base + size - 1, base + size, base - 1,
                                      base + rng.next_below(size)};
    const std::uint64_t window = (base | 4095) + 1;
    if (window < base + size) out.insert(out.end(), {window - 1, window});
    return out;
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 40) {
      AllocationEntry e;
      const std::uint32_t size = random_size();
      const std::uint64_t local = kSlab + random_offset(kSlabBytes - 4 * 4096);
      e.local = reinterpret_cast<std::uint8_t*>(local);
      e.page = static_cast<PageIndex>((local - kSlab) / 4096);
      e.offset = static_cast<std::uint32_t>((local - kSlab) % 4096);
      e.size = size;
      const bool provisional = rng.next_bool(0.1);
      e.pointer = {static_cast<SpaceId>(rng.next_in(1, 3)),
                   (provisional ? kProvisional : kHomeBase) + random_offset(kHomeBytes),
                   random_type()};
      if (rng.next_bool(0.02)) e.pointer = LongPointer::null();
      if (rng.next_bool(0.02)) e.size = 0;
      const auto pages = static_cast<std::uint32_t>((e.offset + e.size + 4095) / 4096);
      const StatusCode want = ref.insert(e, pages);
      ASSERT_EQ(table.insert(e, pages).code(), want) << "op " << op;
      inserted += want == StatusCode::kOk;
    } else if (roll < 55) {
      // Identity lookups: hits (any type), misses, and interior addresses.
      if (auto live = random_live(); live && rng.next_bool(0.7)) {
        const LongPointer& p = live->entry.pointer;
        const LongPointer probe{p.space, p.address, random_type()};
        ASSERT_TRUE(same_entry(table.find(probe), ref.find(p.space, p.address))) << op;
        const LongPointer inner{p.space, p.address + 8, p.type};
        ASSERT_TRUE(same_entry(table.find(inner), ref.find(p.space, p.address + 8))) << op;
      } else {
        const SpaceId space = static_cast<SpaceId>(rng.next_in(1, 3));
        const std::uint64_t addr = kHomeBase + random_offset(kHomeBytes);
        ASSERT_TRUE(same_entry(table.find({space, addr, random_type()}), ref.find(space, addr)))
            << op;
      }
    } else if (roll < 70) {
      std::vector<std::uint64_t> points;
      SpaceId space = static_cast<SpaceId>(rng.next_in(1, 3));
      if (auto live = random_live()) {
        points = probes(live->entry.pointer.address, live->entry.size);
        if (rng.next_bool(0.8)) space = live->entry.pointer.space;
      } else {
        points = {kHomeBase + random_offset(kHomeBytes)};
      }
      for (const std::uint64_t addr : points) {
        ASSERT_TRUE(same_entry(table.find_containing_home(space, addr),
                               ref.containing_home(space, addr)))
            << "op " << op << " addr " << addr;
      }
    } else if (roll < 82) {
      std::vector<std::uint64_t> points = {kSlab + random_offset(kSlabBytes)};
      if (auto live = random_live()) {
        points = probes(reinterpret_cast<std::uintptr_t>(live->entry.local), live->entry.size);
      }
      for (const std::uint64_t addr : points) {
        ASSERT_TRUE(same_entry(table.find_by_local(reinterpret_cast<const void*>(addr)),
                               ref.containing_local(addr)))
            << "op " << op << " addr " << addr;
      }
    } else if (roll < 88) {
      const auto page = static_cast<PageIndex>(rng.next_below(kSlabBytes / 4096 + 2));
      const std::vector<const AllocationEntry*> got = table.entries_on_page(page);
      const std::vector<AllocationEntry> want = ref.on_page(page);
      ASSERT_EQ(got.size(), want.size()) << "op " << op << " page " << page;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i]->local, want[i].local) << "op " << op;
        ASSERT_EQ(got[i]->pointer, want[i].pointer) << "op " << op;
      }
    } else if (roll < 93) {
      // Rebind a (usually provisional) entry to a free home range, to an
      // identity another entry holds, or with the wrong type.
      auto live = random_live();
      if (!live) continue;
      LongPointer from = live->entry.pointer;
      if (rng.next_bool(0.1)) from.type = from.type == 64 ? 65 : 64;
      LongPointer to{static_cast<SpaceId>(rng.next_in(1, 3)),
                     kHomeBase + random_offset(kHomeBytes), random_type()};
      if (auto other = random_live(); other && rng.next_bool(0.2)) {
        to = other->entry.pointer;
        if (rng.next_bool(0.5)) to.type = random_type();
      } else if (!ref.home_free(to.space, to.address, live->entry.size,
                                ref.find(from.space, from.address))) {
        continue;  // overlapping home ranges are outside the contract
      }
      const StatusCode want = ref.rebind(from, to);
      ASSERT_EQ(table.rebind(from, to).code(), want) << "op " << op;
      rebound += want == StatusCode::kOk;
    } else if (roll < 98) {
      auto live = random_live();
      if (!live) continue;
      LongPointer p = live->entry.pointer;
      if (rng.next_bool(0.1)) p.type = p.type == 64 ? 65 : 64;
      const StatusCode want = ref.remove(p);
      ASSERT_EQ(table.remove(p).code(), want) << "op " << op;
      removed += want == StatusCode::kOk;
    } else if (rng.next_bool(0.25)) {
      table.clear();
      ref.clear();
      ++cycles;
    }
    ASSERT_EQ(table.size(), ref.entries().size()) << "op " << op;
    peak = std::max(peak, ref.entries().size());
  }
  // The run must have exercised what it claims to.
  EXPECT_GE(inserted, 2000u);
  EXPECT_GE(rebound, 200u);
  EXPECT_GE(removed, 200u);
  EXPECT_GE(cycles, 50u);
  EXPECT_GE(peak, 100u);
}

}  // namespace
}  // namespace srpc
