// The data allocation table (paper §3.2, Table 1).
//
// "The runtime system maintains a data allocation table that records what
// data should be transferred from remote address spaces. The entries of the
// table are the page number, the offset within the page, and a long
// pointer."
//
// The table is also the swizzling index: forward lookups map a long pointer
// to its assigned cache location (so a pointer received twice swizzles to
// the same ordinary pointer), and the reverse interval lookup turns any
// cache address back into its long pointer — which is what makes
// unswizzling, and therefore nested RPC and callbacks, work (paper §3.3).
//
// The table is filled and emptied once per session, so every index is flat
// and recycled: entries live in chunks that clear() keeps, the identity
// index is one open-addressing array, interval lookups go through 4 KiB
// window buckets, and the page index is a vector. A steady-state session
// allocates nothing here, and clear() touches only what the session did.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "swizzle/long_pointer.hpp"
#include "vm/page_arena.hpp"

namespace srpc {

struct AllocationEntry {
  LongPointer pointer;        // home identity of the datum
  PageIndex page = kInvalidPage;  // first page (large data spans several)
  std::uint32_t offset = 0;   // byte offset within the first page
  std::uint32_t size = 0;     // local-layout byte size of the datum
  std::uint8_t* local = nullptr;  // cache address (page base + offset)
};

class DataAllocationTable {
 public:
  DataAllocationTable() = default;
  DataAllocationTable(const DataAllocationTable&) = delete;
  DataAllocationTable& operator=(const DataAllocationTable&) = delete;

  // Records a new swizzled location. `page_count` registers the entry on
  // that many consecutive pages starting at entry.page (large data).
  // Fails if the long pointer is already present or the local or home range
  // overlaps an entry's.
  Status insert(const AllocationEntry& entry, std::uint32_t page_count = 1);

  // Long pointer -> entry (nullptr if never swizzled here). Exact match on
  // the home base address.
  [[nodiscard]] const AllocationEntry* find(const LongPointer& pointer) const;

  // Entry whose home range [pointer.address, +size) contains `space`/`addr`
  // (interior remote pointers). nullptr if unknown.
  [[nodiscard]] const AllocationEntry* find_containing_home(SpaceId space,
                                                            std::uint64_t addr) const;

  // Cache address -> containing entry (supports interior addresses within
  // a datum). nullptr if the address belongs to no entry.
  [[nodiscard]] const AllocationEntry* find_by_local(const void* addr) const;

  // All entries allocated to one page, in offset order — exactly what a
  // page fault must fetch.
  [[nodiscard]] std::vector<const AllocationEntry*> entries_on_page(PageIndex page) const;

  // Re-keys a provisional long pointer (batched extended_malloc, paper
  // §3.5) to the home-assigned identity once the batch reply arrives.
  // Fails if another entry already holds the target identity.
  Status rebind(const LongPointer& provisional, const LongPointer& actual);

  // Drops an entry (extended_free): removed from every index; its storage
  // and the cache slot are not reused until session end.
  Status remove(const LongPointer& pointer);

  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  void clear();

 private:
  struct Slot {
    AllocationEntry entry;
    std::uint32_t page_count = 0;
    std::uint32_t id_pos = 0;  // position in ids_, kept current as it moves
    bool live = false;
  };

  // One address range per key — the cache (key 0) or a home space — cut
  // into 4 KiB windows. Each window lists, sorted by base, every entry whose
  // range covers part of it, so an interval query reads one bucket.
  // Buckets keep their capacity across clear().
  class WindowIndex {
   public:
    struct Ref {
      std::uint64_t base;
      Slot* slot;
    };
    // Lists `slot` (range [base, last]) in every window the range covers.
    void add(std::uint32_t key, std::uint64_t base, std::uint64_t last, Slot* slot);
    void erase(std::uint32_t key, std::uint64_t base, std::uint64_t last,
               const Slot* slot);
    [[nodiscard]] bool overlaps(std::uint32_t key, std::uint64_t base,
                                std::uint64_t last) const;
    [[nodiscard]] const Slot* containing(std::uint32_t key, std::uint64_t addr) const;
    void clear();

   private:
    struct Bucket {
      std::uint32_t key = 0;
      std::uint32_t pos = 0;  // position in index_
      std::uint64_t window = 0;
      std::vector<Ref> refs;
    };
    [[nodiscard]] const Bucket* find(std::uint32_t key, std::uint64_t window) const;
    Bucket& get(std::uint32_t key, std::uint64_t window);

    std::vector<Bucket> buckets_;  // the first used_ hold this session's windows
    std::size_t used_ = 0;
    std::vector<std::uint32_t> index_;  // open addressing: bucket + 1, 0 = empty
  };

  [[nodiscard]] Slot* find_slot(SpaceId space, std::uint64_t address) const;
  void index_identity(Slot* slot);
  void unindex_identity(Slot* slot);
  void index_pages(Slot* slot);
  void unindex_pages(const Slot* slot);

  static constexpr std::size_t kChunk = 256;
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // stable, kept across clear()
  std::size_t used_ = 0;  // slots handed out since the last clear()
  std::size_t live_ = 0;
  // Identity index keyed by (home space, home base address): the type is
  // not part of a datum's identity. Linear probing, at most half full.
  std::vector<Slot*> ids_;
  std::vector<std::vector<AllocationEntry*>> pages_;  // by page, sorted by local
  WindowIndex local_windows_;
  WindowIndex home_windows_;
};

}  // namespace srpc
