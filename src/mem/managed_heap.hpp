// ManagedHeap — the per-space heap "under the system control".
//
// The paper assumes "all data referenced by long pointers are ... located in
// the heap area under the system control": the runtime must be able to map
// any home address back to a typed object (to serve fetches, apply
// write-backs, and unswizzle local pointers). ManagedHeap provides that:
// typed allocation from the space's HeapArena plus a dense index from
// address to allocation record.
//
// Index layout. Records live in 256-slot chunks that never move. The arena
// is cut into blocks in bump order, so block order is address order, and a
// freed block is only ever reused by an allocation of exactly its size
// (LIFO per size): a block keeps its place, and its record slot, for the
// heap's lifetime. Block starts (in 8-byte granules) sit in one ascending
// vector; a page table over the used part of the arena gives, for each
// kIndexPage bytes, the first block starting in that page, so an interior
// find() is a binary search over the few starts of one page. Each session's
// owner-tagged records form an intrusive list, so commit and abort settle
// only that session's allocations. Memory adopted from outside the arena
// sits in a small sorted side list consulted only for outside addresses.
//
// Concurrency: every operation on a space — user code, incoming fetch
// service, write-back application — runs on that space's single worker
// thread (the RPC execution model in paper §3.1), so the heap is
// deliberately unsynchronised.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "mem/heap_arena.hpp"
#include "types/arch.hpp"
#include "types/layout.hpp"
#include "types/type_registry.hpp"

namespace srpc {

class ManagedHeap {
 public:
  struct Record {
    // Full type of the allocation: for count > 1 this is the interned
    // T[count] array type, so a long pointer to the base names the whole
    // datum and a fetch transfers all of it.
    TypeId type = kInvalidTypeId;
    std::uint32_t count = 1;     // element count (introspection)
    std::uint64_t size = 0;      // total bytes
    std::uint8_t* base = nullptr;
    bool adopted = false;        // registered, not owned: never deallocated here
    // Remote provenance, for orphan reclamation: which space/session asked
    // for this storage via extended_malloc (ALLOC_BATCH). Local allocations
    // stay untagged. A committed session promotes its allocations to
    // untagged (they are durable home data from then on).
    SpaceId owner_space = kInvalidSpaceId;
    SessionId owner_session = kNoSession;
  };

  // Granularity of the address page table.
  static constexpr std::uint64_t kIndexPage = 256;

  // A heap over `arena`, which outlives it (the AddressSpace's arena, shared
  // by its incarnations).
  ManagedHeap(TypeRegistry& registry, const LayoutEngine& layouts,
              const ArchModel& arch, SpaceId owner, HeapArena& arena)
      : registry_(registry), layouts_(layouts), arch_(arch), owner_(owner),
        arena_(&arena) {}
  // A standalone heap with an arena of its own.
  ManagedHeap(TypeRegistry& registry, const LayoutEngine& layouts,
              const ArchModel& arch, SpaceId owner)
      : registry_(registry), layouts_(layouts), arch_(arch), owner_(owner),
        own_arena_(std::make_unique<HeapArena>(arch)),
        arena_(own_arena_.get()) {}
  ManagedHeap(const ManagedHeap&) = delete;
  ManagedHeap& operator=(const ManagedHeap&) = delete;

  // Allocates `count` contiguous objects of `type` laid out for this
  // space's architecture, zero-initialised.
  Result<void*> allocate(TypeId type, std::uint32_t count = 1);

  // Registers externally-owned memory (e.g. a buffer the application built)
  // so long pointers can reference it. The caller keeps ownership and must
  // keep it alive until release() or heap destruction.
  Status adopt(void* base, TypeId type, std::uint32_t count = 1);

  // Frees an allocation (or unregisters an adopted range). `p` must be the
  // base address. In retain-freed mode the block is never handed out again
  // (see set_retain_freed).
  Status free(void* p);

  // Crash-recovery restore: re-registers a predecessor incarnation's arena
  // range verbatim (full type, count, size, ownership tags) without
  // recomputing the layout. The bytes are left as they are.
  Status restore(void* base, TypeId full_type, std::uint32_t count,
                 std::uint64_t size, SpaceId owner_space,
                 SessionId owner_session);

  // Recovery mode: freed (and reclaimed) blocks are never reused. Log
  // replay may restore-then-free a range that was freed before the crash,
  // and no logged address may be handed out again while its log records
  // are live.
  void set_retain_freed(bool on) noexcept { retain_freed_ = on; }

  // Containing allocation for any (possibly interior) address.
  [[nodiscard]] const Record* find(const void* addr) const;

  // Allocation whose base is exactly `addr`.
  [[nodiscard]] const Record* find_base(std::uint64_t addr) const;

  // --- Orphan reclamation (remote extended_malloc provenance) ---

  // Tags the allocation based at `addr` with the requesting space/session.
  Status tag_owner(std::uint64_t addr, SpaceId space, SessionId session);

  // Clears the tags of every allocation owned by `session`: its data
  // committed and now belongs to the home like any local allocation.
  // Returns the number of allocations promoted.
  std::size_t promote_session(SessionId session);

  // Frees every still-tagged allocation owned by `session` (its owner
  // aborted or died before committing). Returns bytes reclaimed.
  std::uint64_t reclaim_session(SessionId session);

  // Frees every still-tagged allocation owned by `space`, any session
  // (the space was declared dead). Returns bytes reclaimed.
  std::uint64_t reclaim_owned_by(SpaceId space);

  // Live bytes still tagged to some remote owner (not yet promoted).
  [[nodiscard]] std::uint64_t owned_bytes(SpaceId space) const;

  // Live bytes still tagged to any uncommitted session, all owners. Zero
  // after quiescence means no session leaked orphan storage.
  [[nodiscard]] std::uint64_t session_owned_bytes() const;

  [[nodiscard]] bool contains(const void* addr) const { return find(addr) != nullptr; }

  [[nodiscard]] SpaceId owner() const noexcept { return owner_; }
  [[nodiscard]] const HeapArena& arena() const noexcept { return *arena_; }
  [[nodiscard]] std::size_t live_allocations() const noexcept { return live_count_; }
  [[nodiscard]] std::uint64_t live_bytes() const noexcept { return live_bytes_; }

  // Visits every live allocation in address order (introspection, dumps,
  // checkpoint images).
  template <typename F>
  void for_each(F&& fn) const {
    const auto arena_base = reinterpret_cast<std::uintptr_t>(arena_->base());
    auto side = outside_.begin();
    for (; side != outside_.end() && side->first < arena_base; ++side) {
      fn(slot(side->second).record);
    }
    for (const std::uint32_t id : block_slot_) {
      if (slot(id).live) fn(slot(id).record);
    }
    for (; side != outside_.end(); ++side) fn(slot(side->second).record);
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;
  static constexpr std::uint64_t kGranule = 8;
  static constexpr std::size_t kChunk = 256;

  struct Slot {
    Record record;
    // Session-list links while tagged; `next` doubles as the free-list link
    // of a freed block.
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    bool live = false;
  };
  struct FreeList {
    std::uint64_t size;
    std::uint32_t head;
  };
  struct SessionList {
    SessionId session;
    std::uint32_t head;
  };

  Slot& slot(std::uint32_t id) noexcept { return chunks_[id / kChunk][id % kChunk]; }
  const Slot& slot(std::uint32_t id) const noexcept {
    return chunks_[id / kChunk][id % kChunk];
  }
  std::uint32_t new_slot();
  [[nodiscard]] std::uint64_t arena_base() const noexcept {
    return reinterpret_cast<std::uint64_t>(arena_->base());
  }

  // Position of the last block starting at or below arena offset `off`.
  [[nodiscard]] std::uint32_t block_at(std::uint64_t off) const;
  // Slot of the live allocation based exactly at `addr`, or kNone.
  [[nodiscard]] std::uint32_t slot_at_base(std::uint64_t addr) const;
  // Enters a new block [off, off + size) into the address index.
  void index_block(std::uint64_t off, std::uint64_t size, std::uint32_t id);
  // Checks [addr, addr + size) against every indexed block.
  [[nodiscard]] bool overlaps_block(std::uint64_t addr, std::uint64_t size) const;

  std::uint32_t pop_free(std::uint64_t size, std::uint64_t align);
  void push_free(std::uint32_t id);
  // The open-session list of `session`, or end().
  std::vector<SessionList>::iterator session_list(SessionId session);
  void link_session(std::uint32_t id);
  void unlink_session(std::uint32_t id);
  // Unregisters a live record: its block goes to the free list (or is
  // retired in retain-freed mode).
  void discard(std::uint32_t id);

  TypeRegistry& registry_;
  const LayoutEngine& layouts_;
  const ArchModel& arch_;
  SpaceId owner_;
  std::unique_ptr<HeapArena> own_arena_;
  HeapArena* arena_;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;

  std::vector<std::uint32_t> block_start_;  // arena offset / kGranule, ascending
  std::vector<std::uint32_t> block_slot_;   // record slot of each block
  // page_first_[p]: the number of blocks starting below page p's first byte.
  std::vector<std::uint32_t> page_first_;
  std::vector<std::pair<std::uintptr_t, std::uint32_t>> outside_;  // by base

  std::vector<FreeList> free_lists_;       // ascending size
  std::vector<SessionList> session_lists_;  // open sessions with tagged records

  std::size_t live_count_ = 0;
  std::uint64_t live_bytes_ = 0;
  bool retain_freed_ = false;
};

}  // namespace srpc
