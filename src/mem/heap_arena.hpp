// HeapArena — the reserved address range one space's managed heap lives in.
//
// Every object a space allocates is carved from this one region by a bump
// pointer, so an object's address depends only on the space's allocation
// sequence: offsets from the arena base replay exactly across processes and
// across Worlds, and graph payloads (whose pointer fields pack as deltas
// from the payload base) come out the same size every run.
//
// The range is reserved PROT_NONE on the first carve and committed
// read-write kCommitStep at a time as the bump pointer advances; nothing is
// mapped before a space allocates, and untouched committed pages cost no
// resident memory.
//
// The AddressSpace owns its arena and every incarnation's heap indexes the
// same one: peers hold long pointers into a dead incarnation's storage, the
// successor re-registers those ranges from the recovery log, and its own
// allocations continue past the predecessor's bump pointer.
//
// Foreign architectures: a space modelling a CPU with pointers narrower
// than the host's (e.g. the paper's 32-bit SPARC) must hand out addresses
// its own pointer fields can hold, so its arena is reserved in the low
// 2 GiB via mmap(MAP_32BIT).
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "types/arch.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace srpc {

// Arena bytes no live object owns (freed, or committed but not yet carved)
// are poisoned under AddressSanitizer, so a use-after-free of a managed
// object is reported as it would be for operator new storage.
inline void poison_heap_bytes(const void* p, std::uint64_t n) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void unpoison_heap_bytes(const void* p, std::uint64_t n) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

class HeapArena {
 public:
  explicit HeapArena(const ArchModel& arch) noexcept
      : narrow_(arch.pointer_size < 8) {}
  ~HeapArena();
  HeapArena(const HeapArena&) = delete;
  HeapArena& operator=(const HeapArena&) = delete;

  // Carves `size` bytes aligned to `align` (a power of two) at the bump
  // pointer. Fresh bytes are zero. Under AddressSanitizer the committed
  // bytes past the bump pointer are poisoned; the carved range is not.
  Result<std::uint8_t*> carve(std::uint64_t size, std::uint64_t align);

  // Null until the first carve.
  [[nodiscard]] std::uint8_t* base() const noexcept { return base_; }
  // Bytes below the bump pointer.
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

  // Whether `addr` lies below the bump pointer (carved at some time).
  [[nodiscard]] bool contains(std::uint64_t addr) const noexcept {
    return addr - reinterpret_cast<std::uint64_t>(base_) < used_;
  }

 private:
  static constexpr std::uint64_t kWideReserve = 8ULL << 30;
  static constexpr std::uint64_t kNarrowReserve = 256ULL << 20;
  static constexpr std::uint64_t kCommitStep = 1ULL << 20;

  Status reserve();

  bool narrow_;
  std::uint8_t* base_ = nullptr;
  std::uint64_t reserved_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t used_ = 0;
};

}  // namespace srpc
