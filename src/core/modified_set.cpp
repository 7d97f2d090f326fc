#include "core/modified_set.hpp"

namespace srpc {

Result<bool> touches_pointer_field(const LayoutEngine& layouts, const ArchModel& arch,
                                   TypeId type, std::span<const ByteRange> dirty) {
  auto layout = layouts.layout_of(arch, type);
  if (!layout) return layout.status();
  if (!layout.value()->has_pointers) return false;
  // Leaves come in ascending offset order, so one sweep over `dirty` does.
  std::size_t next = 0;
  bool hit = false;
  SRPC_RETURN_IF_ERROR(for_each_leaf(
      layout.value()->leaves, 0,
      [&](const LayoutLeaf& leaf, std::uint64_t offset) -> Status {
        if (hit || leaf.kind != LayoutLeaf::Kind::kPointer) return Status::ok();
        while (next < dirty.size() && dirty[next].end() <= offset) ++next;
        hit = next < dirty.size() && dirty[next].offset < offset + arch.pointer_size;
        return Status::ok();
      }));
  return hit;
}

}  // namespace srpc
