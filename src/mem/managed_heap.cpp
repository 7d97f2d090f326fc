#include "mem/managed_heap.hpp"

#include <algorithm>
#include <cstring>

namespace srpc {

namespace {
// Arena bytes a block occupies: a zero-size object still gets a distinct
// address.
std::uint64_t extent(std::uint64_t size) noexcept { return std::max<std::uint64_t>(size, 1); }
}  // namespace

std::uint32_t ManagedHeap::new_slot() {
  if (slots_used_ == chunks_.size() * kChunk) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunk));
  }
  return slots_used_++;
}

std::uint32_t ManagedHeap::block_at(std::uint64_t off) const {
  const std::uint64_t page = off / kIndexPage;
  const std::size_t n = block_start_.size();
  const std::size_t lo = page < page_first_.size() ? page_first_[page] : n;
  const std::size_t hi = page + 1 < page_first_.size() ? page_first_[page + 1] : n;
  const auto granule = static_cast<std::uint32_t>(off / kGranule);
  const auto first = block_start_.begin();
  const std::size_t pos = std::upper_bound(first + lo, first + hi, granule) - first;
  return pos == 0 ? kNone : static_cast<std::uint32_t>(pos - 1);
}

std::uint32_t ManagedHeap::slot_at_base(std::uint64_t addr) const {
  if (arena_->contains(addr)) {
    const std::uint32_t pos = block_at(addr - arena_base());
    if (pos == kNone) return kNone;
    const std::uint32_t id = block_slot_[pos];
    const Slot& s = slot(id);
    return s.live && reinterpret_cast<std::uint64_t>(s.record.base) == addr ? id : kNone;
  }
  const auto it = std::lower_bound(
      outside_.begin(), outside_.end(), addr,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  return it != outside_.end() && it->first == addr ? it->second : kNone;
}

void ManagedHeap::index_block(std::uint64_t off, std::uint64_t size, std::uint32_t id) {
  const auto granule = static_cast<std::uint32_t>(off / kGranule);
  // Bump carving appends; only a restore below the last block inserts.
  std::size_t pos = block_start_.size();
  if (pos > 0 && block_start_.back() > granule) {
    pos = std::upper_bound(block_start_.begin(), block_start_.end(), granule) -
          block_start_.begin();
    for (std::size_t p = off / kIndexPage + 1; p < page_first_.size(); ++p) {
      ++page_first_[p];
    }
  }
  block_start_.insert(block_start_.begin() + static_cast<std::ptrdiff_t>(pos), granule);
  block_slot_.insert(block_slot_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  const std::uint64_t pages = (off + extent(size) + kIndexPage - 1) / kIndexPage;
  while (page_first_.size() < pages) {
    const std::uint64_t page_granule = page_first_.size() * (kIndexPage / kGranule);
    page_first_.push_back(static_cast<std::uint32_t>(
        std::lower_bound(block_start_.begin(), block_start_.end(), page_granule) -
        block_start_.begin()));
  }
}

bool ManagedHeap::overlaps_block(std::uint64_t addr, std::uint64_t size) const {
  const std::uint64_t off = addr - arena_base();
  std::uint32_t pos = block_at(off);
  if (pos != kNone) {
    const Record& below = slot(block_slot_[pos]).record;
    if (reinterpret_cast<std::uint64_t>(below.base) + extent(below.size) > addr) {
      return true;
    }
  }
  pos = pos == kNone ? 0 : pos + 1;
  return pos < block_start_.size() &&
         static_cast<std::uint64_t>(block_start_[pos]) * kGranule < off + extent(size);
}

std::uint32_t ManagedHeap::pop_free(std::uint64_t size, std::uint64_t align) {
  auto it = std::lower_bound(
      free_lists_.begin(), free_lists_.end(), size,
      [](const FreeList& list, std::uint64_t key) { return list.size < key; });
  if (it == free_lists_.end() || it->size != size || it->head == kNone) return kNone;
  const std::uint32_t id = it->head;
  if (reinterpret_cast<std::uint64_t>(slot(id).record.base) % align != 0) return kNone;
  it->head = slot(id).next;
  slot(id).next = kNone;
  return id;
}

void ManagedHeap::push_free(std::uint32_t id) {
  const std::uint64_t size = slot(id).record.size;
  auto it = std::lower_bound(
      free_lists_.begin(), free_lists_.end(), size,
      [](const FreeList& list, std::uint64_t key) { return list.size < key; });
  if (it == free_lists_.end() || it->size != size) {
    it = free_lists_.insert(it, FreeList{size, kNone});
  }
  slot(id).next = it->head;
  it->head = id;
}

std::vector<ManagedHeap::SessionList>::iterator ManagedHeap::session_list(
    SessionId session) {
  return std::find_if(session_lists_.begin(), session_lists_.end(),
                      [&](const SessionList& l) { return l.session == session; });
}

void ManagedHeap::link_session(std::uint32_t id) {
  Slot& s = slot(id);
  const SessionId session = s.record.owner_session;
  auto it = session_list(session);
  if (it == session_lists_.end()) {
    session_lists_.push_back(SessionList{session, kNone});
    it = std::prev(session_lists_.end());
  }
  s.prev = kNone;
  s.next = it->head;
  if (it->head != kNone) slot(it->head).prev = id;
  it->head = id;
}

void ManagedHeap::unlink_session(std::uint32_t id) {
  Slot& s = slot(id);
  if (s.record.owner_session == kNoSession) return;
  if (s.next != kNone) slot(s.next).prev = s.prev;
  if (s.prev != kNone) {
    slot(s.prev).next = s.next;
  } else {
    auto it = session_list(s.record.owner_session);
    it->head = s.next;
    if (it->head == kNone) session_lists_.erase(it);
  }
  s.prev = kNone;
  s.next = kNone;
}

void ManagedHeap::discard(std::uint32_t id) {
  Slot& s = slot(id);
  unlink_session(id);
  s.live = false;
  --live_count_;
  live_bytes_ -= s.record.size;
  if (s.record.adopted) {
    const auto key = reinterpret_cast<std::uintptr_t>(s.record.base);
    outside_.erase(std::lower_bound(
        outside_.begin(), outside_.end(), key,
        [](const auto& entry, std::uintptr_t k) { return entry.first < k; }));
    return;
  }
  poison_heap_bytes(s.record.base, s.record.size);
  if (!retain_freed_) push_free(id);
}

Result<void*> ManagedHeap::allocate(TypeId type, std::uint32_t count) {
  if (count == 0) {
    return invalid_argument("allocate: zero count");
  }
  const TypeId full = count > 1 ? registry_.array_of(type, count) : type;
  auto layout = layouts_.layout_of(arch_, full);
  if (!layout) return layout.status();
  const std::uint64_t size = layout.value()->size;
  const std::uint64_t align = std::max<std::uint64_t>(layout.value()->align, kGranule);

  std::uint32_t id = retain_freed_ ? kNone : pop_free(size, align);
  std::uint8_t* base = nullptr;
  if (id != kNone) {
    base = slot(id).record.base;
    unpoison_heap_bytes(base, size);
    std::memset(base, 0, size);
  } else {
    auto carved = arena_->carve(extent(size), align);
    if (!carved) return carved.status();
    base = carved.value();
    id = new_slot();
    index_block(reinterpret_cast<std::uint64_t>(base) - arena_base(), size, id);
  }
  Slot& s = slot(id);
  s.record = Record{full, count, size, base};
  s.live = true;
  ++live_count_;
  live_bytes_ += size;
  return static_cast<void*>(base);
}

Status ManagedHeap::adopt(void* base, TypeId type, std::uint32_t count) {
  if (base == nullptr || count == 0) {
    return invalid_argument("adopt: null base or zero count");
  }
  const TypeId full = count > 1 ? registry_.array_of(type, count) : type;
  auto layout = layouts_.layout_of(arch_, full);
  if (!layout) return layout.status();
  const std::uint64_t size = layout.value()->size;
  const auto key = reinterpret_cast<std::uintptr_t>(base);
  if (arena_->base() != nullptr && key < arena_base() + arena_->used() &&
      key + size > arena_base()) {
    return invalid_argument("adopt: range inside the heap arena");
  }
  // Reject overlap with existing adopted ranges.
  auto next = std::upper_bound(
      outside_.begin(), outside_.end(), key,
      [](std::uintptr_t k, const auto& entry) { return k < entry.first; });
  if (next != outside_.end() && next->first < key + size) {
    return already_exists("adopt: range overlaps existing allocation");
  }
  if (next != outside_.begin() &&
      std::prev(next)->first + slot(std::prev(next)->second).record.size > key) {
    return already_exists("adopt: range overlaps existing allocation");
  }
  const std::uint32_t id = new_slot();
  Slot& s = slot(id);
  s.record = Record{full, count, size, static_cast<std::uint8_t*>(base),
                    /*adopted=*/true};
  s.live = true;
  outside_.insert(next, {key, id});
  ++live_count_;
  live_bytes_ += size;
  return Status::ok();
}

Status ManagedHeap::free(void* p) {
  const std::uint32_t id = slot_at_base(reinterpret_cast<std::uint64_t>(p));
  if (id == kNone) {
    return not_found("free: not an allocation base");
  }
  discard(id);
  return Status::ok();
}

Status ManagedHeap::restore(void* base, TypeId full_type, std::uint32_t count,
                            std::uint64_t size, SpaceId owner_space,
                            SessionId owner_session) {
  if (base == nullptr || size == 0) {
    return invalid_argument("restore: null base or zero size");
  }
  const auto addr = reinterpret_cast<std::uint64_t>(base);
  if (!arena_->contains(addr) || addr + size > arena_base() + arena_->used() ||
      addr % kGranule != 0) {
    return invalid_argument("restore: range outside the heap arena");
  }
  if (overlaps_block(addr, size)) {
    return already_exists("restore: range overlaps existing allocation");
  }
  const std::uint32_t id = new_slot();
  index_block(addr - arena_base(), size, id);
  Slot& s = slot(id);
  s.record = Record{full_type, count, size, static_cast<std::uint8_t*>(base)};
  s.record.owner_space = owner_space;
  s.record.owner_session = owner_session;
  s.live = true;
  if (owner_session != kNoSession) link_session(id);
  unpoison_heap_bytes(base, size);
  ++live_count_;
  live_bytes_ += size;
  return Status::ok();
}

const ManagedHeap::Record* ManagedHeap::find(const void* addr) const {
  const auto target = reinterpret_cast<std::uint64_t>(addr);
  if (arena_->contains(target)) {
    const std::uint32_t pos = block_at(target - arena_base());
    if (pos == kNone) return nullptr;
    const Slot& s = slot(block_slot_[pos]);
    if (!s.live || target >= reinterpret_cast<std::uint64_t>(s.record.base) + s.record.size) {
      return nullptr;
    }
    return &s.record;
  }
  auto it = std::upper_bound(
      outside_.begin(), outside_.end(), target,
      [](std::uint64_t k, const auto& entry) { return k < entry.first; });
  if (it == outside_.begin()) return nullptr;
  const Record& record = slot(std::prev(it)->second).record;
  return target < std::prev(it)->first + record.size ? &record : nullptr;
}

const ManagedHeap::Record* ManagedHeap::find_base(std::uint64_t addr) const {
  const std::uint32_t id = slot_at_base(addr);
  return id == kNone ? nullptr : &slot(id).record;
}

Status ManagedHeap::tag_owner(std::uint64_t addr, SpaceId space,
                              SessionId session) {
  const std::uint32_t id = slot_at_base(addr);
  if (id == kNone) {
    return not_found("tag_owner: not an allocation base");
  }
  unlink_session(id);
  Record& record = slot(id).record;
  record.owner_space = space;
  record.owner_session = session;
  if (session != kNoSession) link_session(id);
  return Status::ok();
}

std::size_t ManagedHeap::promote_session(SessionId session) {
  auto list = session_list(session);
  if (list == session_lists_.end()) return 0;
  std::size_t promoted = 0;
  for (std::uint32_t id = list->head; id != kNone;) {
    Slot& s = slot(id);
    id = s.next;
    s.record.owner_space = kInvalidSpaceId;
    s.record.owner_session = kNoSession;
    s.prev = kNone;
    s.next = kNone;
    ++promoted;
  }
  session_lists_.erase(list);
  return promoted;
}

std::uint64_t ManagedHeap::reclaim_session(SessionId session) {
  std::uint64_t reclaimed = 0;
  for (;;) {
    auto list = session_list(session);
    if (list == session_lists_.end()) return reclaimed;
    reclaimed += slot(list->head).record.size;
    discard(list->head);
  }
}

std::uint64_t ManagedHeap::reclaim_owned_by(SpaceId space) {
  std::uint64_t reclaimed = 0;
  for (std::uint32_t id = 0; id < slots_used_; ++id) {
    const Slot& s = slot(id);
    if (s.live && s.record.owner_space == space) {
      reclaimed += s.record.size;
      discard(id);
    }
  }
  return reclaimed;
}

std::uint64_t ManagedHeap::owned_bytes(SpaceId space) const {
  std::uint64_t bytes = 0;
  for (std::uint32_t id = 0; id < slots_used_; ++id) {
    const Slot& s = slot(id);
    if (s.live && s.record.owner_space == space) bytes += s.record.size;
  }
  return bytes;
}

std::uint64_t ManagedHeap::session_owned_bytes() const {
  std::uint64_t bytes = 0;
  for (const SessionList& list : session_lists_) {
    for (std::uint32_t id = list.head; id != kNone; id = slot(id).next) {
      bytes += slot(id).record.size;
    }
  }
  return bytes;
}

}  // namespace srpc
