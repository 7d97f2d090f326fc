#include "mem/heap_arena.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace srpc {

HeapArena::~HeapArena() {
  if (base_ == nullptr) return;
  // Shadow state outlives the mapping; whatever maps here next starts clean.
  unpoison_heap_bytes(base_, committed_);
  ::munmap(base_, reserved_);
}

Status HeapArena::reserve() {
  int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
  std::uint64_t bytes = kWideReserve;
  if (narrow_) {
#if defined(__x86_64__) && defined(MAP_32BIT)
    flags |= MAP_32BIT;
    bytes = kNarrowReserve;
#else
    return unimplemented(
        "foreign narrow-pointer heaps need MAP_32BIT (x86-64 Linux)");
#endif
  }
  void* mem = ::mmap(nullptr, bytes, PROT_NONE, flags, -1, 0);
  if (mem == MAP_FAILED) {
    return resource_exhausted(std::string("heap arena mmap: ") +
                              std::strerror(errno));
  }
  base_ = static_cast<std::uint8_t*>(mem);
  reserved_ = bytes;
  return Status::ok();
}

Result<std::uint8_t*> HeapArena::carve(std::uint64_t size, std::uint64_t align) {
  if (base_ == nullptr) SRPC_RETURN_IF_ERROR(reserve());
  const std::uint64_t start = (used_ + align - 1) & ~(align - 1);
  if (start > reserved_ || size > reserved_ - start) {
    return resource_exhausted("heap arena exhausted (" +
                              std::to_string(reserved_ >> 20) + " MiB reserved)");
  }
  const std::uint64_t end = start + size;
  if (end > committed_) {
    const std::uint64_t target =
        std::min(reserved_, (end + kCommitStep - 1) & ~(kCommitStep - 1));
    if (::mprotect(base_ + committed_, target - committed_,
                   PROT_READ | PROT_WRITE) != 0) {
      return resource_exhausted(std::string("heap arena mprotect: ") +
                                std::strerror(errno));
    }
    poison_heap_bytes(base_ + committed_, target - committed_);
    committed_ = target;
  }
  used_ = end;
  unpoison_heap_bytes(base_ + start, size);
  return base_ + start;
}

}  // namespace srpc
