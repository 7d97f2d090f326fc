#include "core/closure.hpp"

#include <bit>
#include <utility>

namespace srpc {

namespace {

// Open-addressing visited set for one traversal: linear probing over a
// power-of-two array, at most half full. `empty` marks free cells; the key
// equal to it is tracked on the side.
template <typename Key, typename Hash>
class FlatSet {
 public:
  explicit FlatSet(Key empty) : empty_(empty), cells_(64, empty) {}

  // True if `key` was not yet present.
  bool insert(const Key& key) {
    if (key == empty_) return !std::exchange(has_empty_, true);
    if ((size_ + 1) * 2 > cells_.size()) grow();
    Key& cell = cells_[find(key)];
    if (cell == key) return false;
    cell = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    if (key == empty_) return has_empty_;
    return cells_[find(key)] == key;
  }

 private:
  // Index of the cell holding `key`, or of the free cell where it belongs.
  [[nodiscard]] std::size_t find(const Key& key) const {
    const std::size_t mask = cells_.size() - 1;
    const int shift = 64 - std::countr_zero(cells_.size());
    std::size_t i = (Hash{}(key) * 0x9E3779B97F4A7C15ULL) >> shift;
    while (!(cells_[i] == empty_) && !(cells_[i] == key)) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Key> old =
        std::exchange(cells_, std::vector<Key>(cells_.size() * 2, empty_));
    for (const Key& key : old) {
      if (!(key == empty_)) cells_[find(key)] = key;
    }
  }

  Key empty_;
  bool has_empty_ = false;
  std::size_t size_ = 0;
  std::vector<Key> cells_;
};

struct AddressHash {
  std::uint64_t operator()(std::uint64_t addr) const noexcept { return addr; }
};

}  // namespace

Status walk_pointer_fields(
    const LayoutEngine& layouts, const ArchModel& arch, TypeId type, const void* src,
    const std::function<Status(std::uint64_t, TypeId)>& fn) {
  auto layout = layouts.layout_of(arch, type);
  if (!layout) return layout.status();
  if (!layout.value()->has_pointers) return Status::ok();
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  return for_each_leaf(
      layout.value()->leaves, 0,
      [&](const LayoutLeaf& leaf, std::uint64_t offset) -> Status {
        if (leaf.kind != LayoutLeaf::Kind::kPointer) return Status::ok();
        const std::uint64_t ordinary =
            read_scaled_uint(bytes + offset, arch.pointer_size, arch.endian);
        return ordinary == 0 ? Status::ok() : fn(ordinary, leaf.pointee);
      });
}

Result<PackedClosure> ClosurePacker::pack(std::span<const std::uint64_t> roots,
                                          std::uint64_t budget_bytes,
                                          bool require_roots) const {
  PackedClosure out;
  // Breadth-first pops at `head`, depth-first at the back.
  std::vector<std::uint64_t> queue;
  std::size_t head = 0;
  FlatSet<std::uint64_t, AddressHash> enqueued(~std::uint64_t{0});
  FlatSet<LongPointer, LongPointerHash> included(LongPointer::null());

  // Adds one readable datum to the result and queues its pointer targets.
  auto add_datum = [&](const LocalDataView::DatumView& datum) -> Status {
    out.groups[datum.id.space].push_back(
        GraphObjectRef{datum.id.address, datum.id.type, datum.image});
    ++out.objects;
    return walk_pointer_fields(
        codec_.layouts, arch_, datum.id.type, datum.image,
        [&](std::uint64_t target, TypeId pointee) -> Status {
          (void)pointee;
          if (enqueued.insert(target)) queue.push_back(target);
          return Status::ok();
        });
  };

  // Roots first. For fetch service (require_roots) they transfer
  // unconditionally — they are the data the receiver asked for. For
  // argument/result closures they count against the budget like everything
  // else, so a budget of zero sends pure pointers: the receiving page
  // "contains no data at this time" (paper §3.2, Fig. 2).
  for (const std::uint64_t root : roots) {
    if (!enqueued.insert(root)) continue;
    auto view = view_.view_local(root);
    if (!view) {
      if (require_roots) return view.status();
      continue;
    }
    if (view.value().image == nullptr) {
      if (require_roots) {
        return failed_precondition("closure root is not locally readable: " +
                                   view.value().id.to_string());
      }
      continue;  // pass-through pointer: the receiver fetches from its home
    }
    if (included.contains(view.value().id)) continue;
    auto est = graph_object_wire_size(codec_, view.value().id.type);
    if (!est) return est.status();
    if (!require_roots && out.estimated_wire_bytes + est.value() > budget_bytes) {
      continue;
    }
    included.insert(view.value().id);
    out.estimated_wire_bytes += est.value();
    SRPC_RETURN_IF_ERROR(add_datum(view.value()));
  }

  // Bounded traversal of the children (the eagerness knob, §3.3).
  while (head < queue.size()) {
    std::uint64_t addr = 0;
    if (order_ == TraversalOrder::kBreadthFirst) {
      addr = queue[head++];
    } else {
      addr = queue.back();
      queue.pop_back();
    }
    auto view = view_.view_local(addr);
    if (!view || view.value().image == nullptr) continue;  // frontier
    if (included.contains(view.value().id)) continue;
    auto est = graph_object_wire_size(codec_, view.value().id.type);
    if (!est) return est.status();
    if (out.estimated_wire_bytes + est.value() > budget_bytes) {
      break;  // budget spent: everything still queued stays frontier
    }
    included.insert(view.value().id);
    out.estimated_wire_bytes += est.value();
    SRPC_RETURN_IF_ERROR(add_datum(view.value()));
  }
  return out;
}

}  // namespace srpc
