#include "swizzle/allocation_table.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace srpc {

namespace {

constexpr unsigned kWindowShift = 12;  // 4 KiB windows

std::uint64_t mix(std::uint32_t key, std::uint64_t value) noexcept {
  std::uint64_t h = value * 0x9E3779B97F4A7C15ULL + key;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 32);
}

// Last byte of [base, base + size); saturates instead of wrapping.
std::uint64_t last_byte(std::uint64_t base, std::uint64_t size) noexcept {
  return size - 1 > std::numeric_limits<std::uint64_t>::max() - base
             ? std::numeric_limits<std::uint64_t>::max()
             : base + (size - 1);
}

std::uint64_t local_base(const AllocationEntry& e) noexcept {
  return reinterpret_cast<std::uintptr_t>(e.local);
}

std::uint64_t local_last(const AllocationEntry& e) noexcept {
  return last_byte(local_base(e), e.size);
}

std::uint64_t home_last(const AllocationEntry& e) noexcept {
  return last_byte(e.pointer.address, e.size);
}

}  // namespace

// ---------------------------------------------------------------------------
// WindowIndex
// ---------------------------------------------------------------------------

const DataAllocationTable::WindowIndex::Bucket* DataAllocationTable::WindowIndex::find(
    std::uint32_t key, std::uint64_t window) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = mix(key, window) & mask;; i = (i + 1) & mask) {
    const std::uint32_t b = index_[i];
    if (b == 0) return nullptr;
    const Bucket& bucket = buckets_[b - 1];
    if (bucket.window == window && bucket.key == key) return &bucket;
  }
}

DataAllocationTable::WindowIndex::Bucket& DataAllocationTable::WindowIndex::get(
    std::uint32_t key, std::uint64_t window) {
  if ((used_ + 1) * 2 > index_.size()) {
    index_.assign(std::max<std::size_t>(64, index_.size() * 2), 0);
    const std::size_t mask = index_.size() - 1;
    for (std::size_t b = 0; b < used_; ++b) {
      std::size_t i = mix(buckets_[b].key, buckets_[b].window) & mask;
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = static_cast<std::uint32_t>(b + 1);
      buckets_[b].pos = static_cast<std::uint32_t>(i);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = mix(key, window) & mask;
  for (; index_[i] != 0; i = (i + 1) & mask) {
    Bucket& bucket = buckets_[index_[i] - 1];
    if (bucket.window == window && bucket.key == key) return bucket;
  }
  if (used_ == buckets_.size()) buckets_.emplace_back();
  Bucket& bucket = buckets_[used_++];
  bucket.key = key;
  bucket.window = window;
  bucket.pos = static_cast<std::uint32_t>(i);
  index_[i] = static_cast<std::uint32_t>(used_);
  return bucket;
}

void DataAllocationTable::WindowIndex::add(std::uint32_t key, std::uint64_t base,
                                           std::uint64_t last, Slot* slot) {
  for (std::uint64_t w = base >> kWindowShift;; ++w) {
    std::vector<Ref>& refs = get(key, w).refs;
    auto at = refs.end();
    if (!refs.empty() && refs.back().base > base) {
      at = std::upper_bound(refs.begin(), refs.end(), base,
                            [](std::uint64_t b, const Ref& r) { return b < r.base; });
    }
    refs.insert(at, Ref{base, slot});
    if (w == last >> kWindowShift) break;
  }
}

void DataAllocationTable::WindowIndex::erase(std::uint32_t key, std::uint64_t base,
                                             std::uint64_t last, const Slot* slot) {
  for (std::uint64_t w = base >> kWindowShift;; ++w) {
    // An emptied bucket stays indexed until clear(); removals are rare.
    std::vector<Ref>& refs = const_cast<Bucket*>(find(key, w))->refs;
    refs.erase(std::find_if(refs.begin(), refs.end(),
                            [slot](const Ref& r) { return r.slot == slot; }));
    if (w == last >> kWindowShift) break;
  }
}

bool DataAllocationTable::WindowIndex::overlaps(std::uint32_t key, std::uint64_t base,
                                                std::uint64_t last) const {
  // An overlapping entry covers some byte of [base, last], so it is listed
  // in that byte's window; within a window the entries are base-sorted and
  // (inserts reject overlaps) disjoint, so only the neighbours of `base`
  // can intersect.
  for (std::uint64_t w = base >> kWindowShift;; ++w) {
    if (const Bucket* bucket = find(key, w)) {
      const std::vector<Ref>& refs = bucket->refs;
      auto next = std::lower_bound(refs.begin(), refs.end(), base,
                                   [](const Ref& r, std::uint64_t b) { return r.base < b; });
      if (next != refs.end() && next->base <= last) return true;
      if (next != refs.begin()) {
        const Ref& prev = *std::prev(next);
        if (last_byte(prev.base, prev.slot->entry.size) >= base) return true;
      }
    }
    if (w == last >> kWindowShift) break;
  }
  return false;
}

const DataAllocationTable::Slot* DataAllocationTable::WindowIndex::containing(
    std::uint32_t key, std::uint64_t addr) const {
  const Bucket* bucket = find(key, addr >> kWindowShift);
  if (bucket == nullptr) return nullptr;
  const std::vector<Ref>& refs = bucket->refs;
  auto next = std::upper_bound(refs.begin(), refs.end(), addr,
                               [](std::uint64_t a, const Ref& r) { return a < r.base; });
  if (next == refs.begin()) return nullptr;
  const Ref& ref = *std::prev(next);
  return last_byte(ref.base, ref.slot->entry.size) >= addr ? ref.slot : nullptr;
}

void DataAllocationTable::WindowIndex::clear() {
  for (std::size_t b = 0; b < used_; ++b) {
    index_[buckets_[b].pos] = 0;
    buckets_[b].refs.clear();
  }
  used_ = 0;
}

// ---------------------------------------------------------------------------
// Identity and page indexes
// ---------------------------------------------------------------------------

DataAllocationTable::Slot* DataAllocationTable::find_slot(SpaceId space,
                                                          std::uint64_t address) const {
  if (ids_.empty()) return nullptr;
  const std::size_t mask = ids_.size() - 1;
  for (std::size_t i = mix(space, address) & mask;; i = (i + 1) & mask) {
    Slot* slot = ids_[i];
    if (slot == nullptr) return nullptr;
    if (slot->entry.pointer.address == address && slot->entry.pointer.space == space) {
      return slot;
    }
  }
}

void DataAllocationTable::index_identity(Slot* slot) {
  if ((live_ + 1) * 2 > ids_.size()) {
    std::vector<Slot*> old = std::exchange(
        ids_, std::vector<Slot*>(std::max<std::size_t>(64, ids_.size() * 2), nullptr));
    const std::size_t mask = ids_.size() - 1;
    for (Slot* s : old) {
      if (s == nullptr) continue;
      std::size_t i = mix(s->entry.pointer.space, s->entry.pointer.address) & mask;
      while (ids_[i] != nullptr) i = (i + 1) & mask;
      ids_[i] = s;
      s->id_pos = static_cast<std::uint32_t>(i);
    }
  }
  const std::size_t mask = ids_.size() - 1;
  std::size_t i = mix(slot->entry.pointer.space, slot->entry.pointer.address) & mask;
  while (ids_[i] != nullptr) i = (i + 1) & mask;
  ids_[i] = slot;
  slot->id_pos = static_cast<std::uint32_t>(i);
}

void DataAllocationTable::unindex_identity(Slot* slot) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home position allows it, so no tombstones remain.
  const std::size_t mask = ids_.size() - 1;
  std::size_t hole = slot->id_pos;
  for (std::size_t j = (hole + 1) & mask; ids_[j] != nullptr; j = (j + 1) & mask) {
    Slot* s = ids_[j];
    const std::size_t home = mix(s->entry.pointer.space, s->entry.pointer.address) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      ids_[hole] = s;
      s->id_pos = static_cast<std::uint32_t>(hole);
      hole = j;
    }
  }
  ids_[hole] = nullptr;
}

void DataAllocationTable::index_pages(Slot* slot) {
  const std::size_t end = std::size_t{slot->entry.page} + slot->page_count;
  if (pages_.size() < end) pages_.resize(end);
  AllocationEntry* entry = &slot->entry;
  for (std::size_t p = slot->entry.page; p < end; ++p) {
    std::vector<AllocationEntry*>& list = pages_[p];
    auto at = list.end();
    if (!list.empty() && list.back()->local > entry->local) {
      at = std::upper_bound(list.begin(), list.end(), entry,
                            [](const AllocationEntry* a, const AllocationEntry* b) {
                              return a->local < b->local;
                            });
    }
    list.insert(at, entry);
  }
}

void DataAllocationTable::unindex_pages(const Slot* slot) {
  const std::size_t end = std::size_t{slot->entry.page} + slot->page_count;
  for (std::size_t p = slot->entry.page; p < end; ++p) {
    std::vector<AllocationEntry*>& list = pages_[p];
    list.erase(std::find(list.begin(), list.end(), &slot->entry));
  }
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

Status DataAllocationTable::insert(const AllocationEntry& entry,
                                   std::uint32_t page_count) {
  if (entry.pointer.is_null()) {
    return invalid_argument("allocation entry with null long pointer");
  }
  if (entry.local == nullptr || entry.size == 0 || page_count == 0) {
    return invalid_argument("allocation entry with empty local range");
  }
  const Slot* same = find_slot(entry.pointer.space, entry.pointer.address);
  if (same != nullptr && same->entry.pointer.type == entry.pointer.type) {
    return already_exists("long pointer already swizzled: " + entry.pointer.to_string());
  }
  if (local_windows_.overlaps(0, local_base(entry), local_last(entry))) {
    return already_exists("local range overlaps existing entry");
  }
  // Also catches the same identity under another type.
  if (home_windows_.overlaps(entry.pointer.space, entry.pointer.address,
                             home_last(entry))) {
    return already_exists("home range overlaps existing entry");
  }

  if (used_ == chunks_.size() * kChunk) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunk));
  }
  Slot* slot = &chunks_[used_ / kChunk][used_ % kChunk];
  ++used_;
  *slot = Slot{entry, page_count, 0, true};
  index_identity(slot);
  ++live_;
  local_windows_.add(0, local_base(entry), local_last(entry), slot);
  home_windows_.add(entry.pointer.space, entry.pointer.address, home_last(entry), slot);
  index_pages(slot);
  return Status::ok();
}

const AllocationEntry* DataAllocationTable::find(const LongPointer& pointer) const {
  // The type component is identity-irrelevant: a pointer received with a
  // different static type still designates the same datum.
  const Slot* slot = find_slot(pointer.space, pointer.address);
  return slot == nullptr ? nullptr : &slot->entry;
}

const AllocationEntry* DataAllocationTable::find_containing_home(
    SpaceId space, std::uint64_t addr) const {
  const Slot* slot = home_windows_.containing(space, addr);
  return slot == nullptr ? nullptr : &slot->entry;
}

const AllocationEntry* DataAllocationTable::find_by_local(const void* addr) const {
  const Slot* slot = local_windows_.containing(0, reinterpret_cast<std::uintptr_t>(addr));
  return slot == nullptr ? nullptr : &slot->entry;
}

std::vector<const AllocationEntry*> DataAllocationTable::entries_on_page(
    PageIndex page) const {
  if (page >= pages_.size()) return {};
  return {pages_[page].begin(), pages_[page].end()};
}

Status DataAllocationTable::rebind(const LongPointer& provisional,
                                   const LongPointer& actual) {
  Slot* slot = find_slot(provisional.space, provisional.address);
  if (slot == nullptr || slot->entry.pointer.type != provisional.type) {
    return not_found("rebind: provisional pointer not in table: " +
                     provisional.to_string());
  }
  const Slot* holder = find_slot(actual.space, actual.address);
  if (holder != nullptr && (holder != slot || holder->entry.pointer.type == actual.type)) {
    return already_exists("rebind: target identity already present: " +
                          actual.to_string());
  }
  AllocationEntry& entry = slot->entry;
  home_windows_.erase(entry.pointer.space, entry.pointer.address, home_last(entry), slot);
  unindex_identity(slot);
  entry.pointer = actual;
  index_identity(slot);
  home_windows_.add(entry.pointer.space, entry.pointer.address, home_last(entry), slot);
  return Status::ok();
}

Status DataAllocationTable::remove(const LongPointer& pointer) {
  Slot* slot = find_slot(pointer.space, pointer.address);
  if (slot == nullptr || slot->entry.pointer.type != pointer.type) {
    return not_found("remove: pointer not in table: " + pointer.to_string());
  }
  const AllocationEntry& entry = slot->entry;
  unindex_identity(slot);
  local_windows_.erase(0, local_base(entry), local_last(entry), slot);
  home_windows_.erase(entry.pointer.space, entry.pointer.address, home_last(entry), slot);
  unindex_pages(slot);
  slot->live = false;
  --live_;
  return Status::ok();
}

void DataAllocationTable::clear() {
  // Undo only what this session touched; every buffer keeps its capacity.
  for (std::size_t i = 0; i < used_; ++i) {
    Slot& slot = chunks_[i / kChunk][i % kChunk];
    if (!slot.live) continue;
    ids_[slot.id_pos] = nullptr;
    const std::size_t end = std::size_t{slot.entry.page} + slot.page_count;
    for (std::size_t p = slot.entry.page; p < end; ++p) pages_[p].clear();
  }
  used_ = 0;
  live_ = 0;
  local_windows_.clear();
  home_windows_.clear();
}

}  // namespace srpc
