// Per-architecture memory layout computation.
//
// Heterogeneous DSM systems (the paper's §5.2 comparison) force one physical
// layout on every machine. Smart RPC instead shares only logical types:
// each space materialises a type in its own architecture's layout, and this
// engine computes that layout — natural alignment, pointer width from the
// ArchModel, struct size rounded to struct alignment (matching the SysV-style
// ABIs of both our host and the paper's SPARC).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "types/arch.hpp"
#include "types/type_descriptor.hpp"
#include "types/type_registry.hpp"

namespace srpc {

// One step of a type's flattened walk. A scalar or pointer leaf sits at
// `offset` in the value; a repeat leaf is an array at `offset`: the `body`
// leaves after it describe one element (offsets relative to the element)
// and are walked `count` times, `stride` bytes apart. Repeats nest, and a
// plan's size does not grow with any array's count.
struct LayoutLeaf {
  enum class Kind : std::uint8_t { kScalar, kPointer, kRepeat };
  Kind kind = Kind::kScalar;
  ScalarType scalar = ScalarType::kI8;  // kScalar
  TypeId pointee = kInvalidTypeId;      // kPointer
  std::uint32_t count = 0;              // kRepeat
  std::uint32_t body = 0;               // kRepeat: leaves in one element
  std::uint64_t offset = 0;
  std::uint64_t stride = 0;             // kRepeat
};

struct Layout {
  std::uint64_t size = 0;
  std::uint32_t align = 1;
  // Byte offset of each struct field, parallel to TypeDescriptor::fields().
  std::vector<std::uint64_t> field_offsets;
  // Every scalar and pointer of the value in field order (arrays folded
  // into repeat leaves): the plan the codec and pointer walkers loop over.
  std::vector<LayoutLeaf> leaves;
  // True if any leaf is a pointer.
  bool has_pointers = false;
};

// Calls `visit(leaf, offset)` for every scalar and pointer leaf of `leaves`
// in field order, expanding repeats, with `offset` relative to the value;
// stops at the first error.
template <typename Visit>
Status for_each_leaf(std::span<const LayoutLeaf> leaves, std::uint64_t base,
                     Visit&& visit) {
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const LayoutLeaf& leaf = leaves[i];
    if (leaf.kind != LayoutLeaf::Kind::kRepeat) {
      SRPC_RETURN_IF_ERROR(visit(leaf, base + leaf.offset));
      continue;
    }
    const auto body = leaves.subspan(i + 1, leaf.body);
    for (std::uint32_t k = 0; k < leaf.count; ++k) {
      SRPC_RETURN_IF_ERROR(for_each_leaf(body, base + leaf.offset + k * leaf.stride, visit));
    }
    i += leaf.body;
  }
  return Status::ok();
}

class LayoutEngine {
 public:
  explicit LayoutEngine(const TypeRegistry& registry) : registry_(registry) {}
  LayoutEngine(const LayoutEngine&) = delete;
  LayoutEngine& operator=(const LayoutEngine&) = delete;

  // Computes (and caches) the layout of `type` on `arch`. Fails on
  // incomplete structs and on structs containing themselves by value.
  Result<const Layout*> layout_of(const ArchModel& arch, TypeId type) const;

  // Convenience: layout size, throwing on failure (runtime-internal ids).
  std::uint64_t size_of(const ArchModel& arch, TypeId type) const;

 private:
  struct ArchKey {
    Endian endian;
    std::uint32_t pointer_size;
    std::uint32_t max_align;
    auto operator<=>(const ArchKey&) const = default;
  };
  static ArchKey key_of(const ArchModel& arch) noexcept {
    return {arch.endian, arch.pointer_size, arch.max_align};
  }

  Result<Layout> compute(const ArchModel& arch, TypeId type,
                         std::vector<TypeId>& in_progress) const;

  const TypeRegistry& registry_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<ArchKey, TypeId>, Layout> cache_;
};

}  // namespace srpc
