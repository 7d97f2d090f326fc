#include "types/layout.hpp"

#include <algorithm>
#include <stdexcept>

namespace srpc {

namespace {
std::uint64_t align_up(std::uint64_t offset, std::uint32_t align) noexcept {
  return (offset + align - 1) / align * align;
}
}  // namespace

Result<const Layout*> LayoutEngine::layout_of(const ArchModel& arch, TypeId type) const {
  const auto key = std::make_pair(key_of(arch), type);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
  }
  std::vector<TypeId> in_progress;
  auto computed = compute(arch, type, in_progress);
  if (!computed) return computed.status();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, _] = cache_.try_emplace(key, std::move(computed.value()));
  return &it->second;
}

std::uint64_t LayoutEngine::size_of(const ArchModel& arch, TypeId type) const {
  auto layout = layout_of(arch, type);
  if (!layout) {
    throw std::logic_error("size_of(" + std::to_string(type) +
                           "): " + layout.status().to_string());
  }
  return layout.value()->size;
}

Result<Layout> LayoutEngine::compute(const ArchModel& arch, TypeId type,
                                     std::vector<TypeId>& in_progress) const {
  if (std::find(in_progress.begin(), in_progress.end(), type) != in_progress.end()) {
    return invalid_argument("type contains itself by value (use a pointer): id " +
                            std::to_string(type));
  }
  auto desc_or = registry_.find(type);
  if (!desc_or) return desc_or.status();
  const TypeDescriptor& desc = *desc_or.value();

  Layout out;
  switch (desc.kind()) {
    case TypeKind::kScalar: {
      const std::uint32_t size = scalar_size(desc.scalar());
      out.size = size;
      out.align = std::min(size, arch.max_align);
      out.leaves.push_back({.kind = LayoutLeaf::Kind::kScalar, .scalar = desc.scalar()});
      return out;
    }
    case TypeKind::kPointer: {
      out.size = arch.pointer_size;
      out.align = std::min(arch.pointer_size, arch.max_align);
      out.leaves.push_back({.kind = LayoutLeaf::Kind::kPointer, .pointee = desc.pointee()});
      out.has_pointers = true;
      return out;
    }
    case TypeKind::kArray: {
      in_progress.push_back(type);
      auto elem = compute(arch, desc.element(), in_progress);
      in_progress.pop_back();
      if (!elem) return elem.status();
      const Layout& e = elem.value();
      out.align = e.align;
      out.size = e.size * desc.count();
      out.leaves.reserve(e.leaves.size() + 1);
      out.leaves.push_back({.kind = LayoutLeaf::Kind::kRepeat,
                            .count = desc.count(),
                            .body = static_cast<std::uint32_t>(e.leaves.size()),
                            .stride = e.size});
      out.leaves.insert(out.leaves.end(), e.leaves.begin(), e.leaves.end());
      out.has_pointers = e.has_pointers;
      return out;
    }
    case TypeKind::kStruct: {
      if (desc.is_incomplete()) {
        return failed_precondition("layout of incomplete struct: " + desc.name());
      }
      in_progress.push_back(type);
      std::uint64_t offset = 0;
      std::uint32_t align = 1;
      out.field_offsets.reserve(desc.fields().size());
      for (const auto& field : desc.fields()) {
        auto fl = compute(arch, field.type, in_progress);
        if (!fl) {
          in_progress.pop_back();
          return fl.status();
        }
        const Layout& f = fl.value();
        offset = align_up(offset, f.align);
        out.field_offsets.push_back(offset);
        // Shift the field's top-level leaves to its offset; repeat bodies
        // stay element-relative.
        std::size_t i = out.leaves.size();
        out.leaves.insert(out.leaves.end(), f.leaves.begin(), f.leaves.end());
        for (; i < out.leaves.size(); i += 1 + out.leaves[i].body) {
          out.leaves[i].offset += offset;
        }
        out.has_pointers = out.has_pointers || f.has_pointers;
        offset += f.size;
        align = std::max(align, f.align);
      }
      in_progress.pop_back();
      out.align = align;
      out.size = align_up(offset, align);
      return out;
    }
  }
  return internal_error("unreachable type kind");
}

}  // namespace srpc
