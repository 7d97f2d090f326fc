#include "core/cache_manager.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>

#include "common/logging.hpp"

namespace srpc {

namespace {
std::uint64_t align_up(std::uint64_t v, std::uint32_t align) noexcept {
  return (v + align - 1) / align * align;
}

// Two differing runs separated by fewer equal bytes than this merge into
// one wire range (each range costs 8 header bytes).
constexpr std::uint32_t kDiffMergeGap = 8;
}  // namespace

CacheManager::CacheManager(const TypeRegistry& registry, const LayoutEngine& layouts,
                           const ArchModel& arch, SpaceId self, CacheOptions options,
                           PageFetcher& fetcher)
    : registry_(registry),
      layouts_(layouts),
      codec_{registry, layouts},
      arch_(arch),
      self_(self),
      options_(options),
      fetcher_(fetcher),
      pages_(options.page_count) {}

CacheManager::~CacheManager() {
  if (registered_) {
    (void)FaultDispatcher::instance().unregister_range(arena_.base());
  }
}

Status CacheManager::init() {
  if (options_.page_count == 0) {
    return invalid_argument("CacheOptions.page_count must be nonzero");
  }
  if (options_.closure_bytes > options_.page_count * options_.page_size) {
    return invalid_argument(
        "CacheOptions.closure_bytes " + std::to_string(options_.closure_bytes) +
        " exceeds the arena (" +
        std::to_string(options_.page_count * options_.page_size) + " bytes)");
  }
  auto arena = PageArena::create(options_.page_count, options_.page_size);
  if (!arena) return arena.status();
  arena_ = std::move(arena.value());
  SRPC_RETURN_IF_ERROR(
      FaultDispatcher::instance().register_range(arena_.base(), arena_.byte_size(), this));
  registered_ = true;
  return Status::ok();
}

Status CacheManager::set_closure_bytes(std::uint64_t bytes) {
  if (bytes > options_.page_count * options_.page_size) {
    return invalid_argument(
        "closure budget " + std::to_string(bytes) + " exceeds the arena (" +
        std::to_string(options_.page_count * options_.page_size) + " bytes)");
  }
  options_.closure_bytes = bytes;
  return Status::ok();
}

Result<PageIndex> CacheManager::grab_pages(std::uint32_t n) {
  if (next_fresh_page_ + n > arena_.page_count()) {
    return resource_exhausted("cache arena full (" +
                              std::to_string(arena_.page_count()) + " pages)");
  }
  const PageIndex first = next_fresh_page_;
  next_fresh_page_ += n;
  return first;
}

std::uint32_t CacheManager::pages_spanned(const AllocationEntry& e) const {
  const std::uint64_t last = e.offset + e.size - 1;
  return static_cast<std::uint32_t>(last / arena_.page_size()) + 1;
}

Status CacheManager::make_writable(PageIndex page) {
  for (PageIndex open : fill_open_pages_) {
    if (open == page) return Status::ok();
  }
  SRPC_RETURN_IF_ERROR(arena_.protect(page, PageProtection::kReadWrite));
  fill_open_pages_.push_back(page);
  return Status::ok();
}

Result<AllocationEntry> CacheManager::place_on_chain(Cursor& cursor, PageKind kind,
                                                     const LongPointer& id,
                                                     std::uint64_t size,
                                                     std::uint32_t align,
                                                     SpaceId origin) {
  const std::size_t page_size = arena_.page_size();
  AllocationEntry entry;
  entry.pointer = id;
  entry.size = static_cast<std::uint32_t>(size);

  if (size > page_size) {
    // Large datum: an exclusive run of consecutive pages.
    const auto n = static_cast<std::uint32_t>((size + page_size - 1) / page_size);
    auto first = grab_pages(n);
    if (!first) return first.status();
    for (std::uint32_t i = 0; i < n; ++i) {
      PageInfo& info = pages_.info(first.value() + i);
      info.kind = kind;
      info.origin = origin;
      info.bump = static_cast<std::uint32_t>(page_size);  // exclusive: no co-tenants
      SRPC_RETURN_IF_ERROR(pages_.transition(first.value() + i, PageState::kAllocated));
    }
    entry.page = first.value();
    entry.offset = 0;
    entry.local = arena_.page_base(first.value());
    SRPC_RETURN_IF_ERROR(table_.insert(entry, n));
    return entry;
  }

  PageIndex page = cursor.page;
  std::uint64_t offset = 0;
  bool fits = false;
  if (page != kInvalidPage) {
    const PageInfo& info = pages_.info(page);
    if (!info.sealed && info.kind == kind && info.origin == origin) {
      offset = align_up(info.bump, align);
      fits = offset + size <= page_size;
    }
  }
  if (!fits) {
    auto fresh = grab_pages(1);
    if (!fresh) return fresh.status();
    page = fresh.value();
    cursor.page = page;
    PageInfo& info = pages_.info(page);
    info.kind = kind;
    info.origin = origin;
    SRPC_RETURN_IF_ERROR(pages_.transition(page, PageState::kAllocated));
    offset = 0;
  }
  pages_.info(page).bump = static_cast<std::uint32_t>(offset + size);
  entry.page = page;
  entry.offset = static_cast<std::uint32_t>(offset);
  entry.local = arena_.page_base(page) + offset;
  SRPC_RETURN_IF_ERROR(table_.insert(entry, 1));
  return entry;
}

Result<AllocationEntry> CacheManager::place_lazy(const LongPointer& id,
                                                 std::uint64_t size,
                                                 std::uint32_t align) {
  const SpaceId origin = options_.strategy == AllocationStrategy::kClusterByOrigin
                             ? id.space
                             : kInvalidSpaceId;
  return place_on_chain(lazy_cursors_[origin], PageKind::kLazy, id, size, align, origin);
}

Result<std::uint64_t> CacheManager::swizzle(const LongPointer& pointer, TypeId pointee) {
  if (pointer.is_null()) {
    return invalid_argument("swizzle of null long pointer");
  }
  if (pointer.space == self_) {
    return failed_precondition("swizzle of self-homed pointer reached the cache");
  }
  if (const AllocationEntry* entry = table_.find(pointer)) {
    return reinterpret_cast<std::uint64_t>(entry->local);
  }
  if (const AllocationEntry* container =
          table_.find_containing_home(pointer.space, pointer.address)) {
    const std::uint64_t delta = pointer.address - container->pointer.address;
    return reinterpret_cast<std::uint64_t>(container->local) + delta;
  }
  const TypeId type = pointer.type != kInvalidTypeId ? pointer.type : pointee;
  if (type == kInvalidTypeId) {
    return invalid_argument("swizzle: no type for " + pointer.to_string());
  }
  auto layout = layouts_.layout_of(arch_, type);
  if (!layout) return layout.status();
  LongPointer id = pointer;
  id.type = type;
  auto entry = place_lazy(id, layout.value()->size, layout.value()->align);
  if (!entry) return entry.status();
  return reinterpret_cast<std::uint64_t>(entry.value().local);
}

Result<LongPointer> CacheManager::unswizzle(const void* addr) const {
  const AllocationEntry* entry = table_.find_by_local(addr);
  if (entry == nullptr) {
    return not_found("unswizzle: address not in the data allocation table");
  }
  const std::uint64_t delta =
      static_cast<std::uint64_t>(static_cast<const std::uint8_t*>(addr) - entry->local);
  if (delta == 0) return entry->pointer;

  // Interior pointer: only array elements have a nameable type.
  const TypeDescriptor& desc = registry_.get(entry->pointer.type);
  if (desc.kind() != TypeKind::kArray) {
    return unimplemented("interior pointer into non-array datum " +
                         entry->pointer.to_string());
  }
  const std::uint64_t elem_size = layouts_.size_of(arch_, desc.element());
  if (delta % elem_size != 0) {
    return invalid_argument("interior pointer not on an element boundary");
  }
  return LongPointer{entry->pointer.space, entry->pointer.address + delta,
                     desc.element()};
}

bool CacheManager::is_resident(const void* addr) const {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) return false;
  const PageState s = pages_.info(page).state;
  return s == PageState::kClean || s == PageState::kDirty;
}

Result<void*> CacheManager::allocate_resident(const LongPointer& provisional,
                                              std::uint64_t size, std::uint32_t align) {
  auto entry = place_on_chain(alloc_cursor_, PageKind::kAlloc, provisional, size, align,
                              provisional.space);
  if (!entry) return entry.status();
  // Born resident and dirty: the creator will initialise it in place and the
  // value must travel with the modified data set.
  const std::uint32_t span = pages_spanned(entry.value());
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.value().page + i;
    if (pages_.info(p).state == PageState::kAllocated) {
      SRPC_RETURN_IF_ERROR(pages_.transition(p, PageState::kDirty));
      SRPC_RETURN_IF_ERROR(arena_.protect(p, PageProtection::kReadWrite));
    }
  }
  // Zero-initialised like ManagedHeap::allocate: the slot may still hold
  // what an earlier session cached there (invalidation only re-protects).
  std::memset(entry.value().local, 0, entry.value().size);
  return static_cast<void*>(entry.value().local);
}

// ---------------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------------

bool CacheManager::on_fault(void* addr, FaultAccess access) {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) return false;
  const PageState state = pages_.info(page).state;

  switch (state) {
    case PageState::kEmpty:
      SRPC_ERROR << "fault on empty cache page " << page << " (wild pointer?)";
      return false;
    case PageState::kAllocated: {
      // First access to data allocated to a protected page: transfer it.
      fetcher_.charge_fault();
      ++stats_.read_faults;
      // Every object already allocated to this page is data an eager
      // closure could have delivered but did not — we are faulting for it.
      const std::size_t faulted_objects = table_.entries_on_page(page).size();
      stats_.closure_prefetch_misses += faulted_objects;
      if (telemetry_ != nullptr && telemetry_->tracing()) {
        telemetry_->annotate("read fault: page " + std::to_string(page) + ", " +
                             std::to_string(faulted_objects) + " objects");
      }
      Status filled = fill_page(page, options_.closure_bytes);
      if (!filled.is_ok()) {
        SRPC_ERROR << "page fill failed: " << filled.to_string();
        return false;
      }
      // A write retries against the now-clean page and upgrades via a
      // second, genuine access violation — the paper's "two page accesses".
      return true;
    }
    case PageState::kClean: {
      if (access == FaultAccess::kRead) {
        SRPC_ERROR << "read fault on clean (readable) page " << page;
        return false;
      }
      fetcher_.charge_fault();
      ++stats_.write_faults;
      if (telemetry_ != nullptr && telemetry_->tracing()) {
        telemetry_->annotate("write fault: page " + std::to_string(page));
      }
      // The page is still untouched (the faulting write has not retired):
      // capture the pre-write image as the twin the delta encoder diffs
      // against.
      pages_.snapshot_twin(page, arena_.page_base(page), arena_.page_size());
      if (!pages_.transition(page, PageState::kDirty).is_ok()) return false;
      if (!arena_.protect(page, PageProtection::kReadWrite).is_ok()) return false;
      return true;
    }
    case PageState::kDirty:
      SRPC_ERROR << "fault on writable page " << page << " (protection drift?)";
      return false;
  }
  return false;
}

// Sink wiring one FETCH_REPLY payload into cache slots.
class CacheManager::FillSink final : public GraphSink {
 public:
  explicit FillSink(CacheManager& cache) : cache_(cache) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (locals_.size() <= index) locals_.resize(index + 1, 0);
    if (const AllocationEntry* entry = cache_.table_.find(id)) {
      locals_[index] = reinterpret_cast<std::uint64_t>(entry->local);
      if (cache_.is_fill_open(entry->page)) {
        ++cache_.stats_.objects_filled;
        return static_cast<void*>(entry->local);
      }
      // Resident elsewhere (already have data) or allocated on a closed
      // lazy page (cannot partially fill it): drop the bytes.
      ++cache_.stats_.objects_skipped;
      return static_cast<void*>(nullptr);
    }
    // Eagerly transferred extra: place it on the fill chain; its pages
    // become resident when the fill completes.
    auto layout = cache_.layouts_.layout_of(cache_.arch_, id.type);
    if (!layout) return layout.status();
    auto entry = cache_.place_on_chain(cache_.fill_cursor_, PageKind::kLazy, id,
                                       layout.value()->size, layout.value()->align,
                                       id.space);
    if (!entry) return entry.status();
    const std::uint32_t span = cache_.pages_spanned(entry.value());
    for (std::uint32_t i = 0; i < span; ++i) {
      SRPC_RETURN_IF_ERROR(cache_.make_writable(entry.value().page + i));
    }
    locals_[index] = reinterpret_cast<std::uint64_t>(entry.value().local);
    ++cache_.stats_.objects_filled;
    // This object arrived as closure surplus — resident before any fault
    // could ask for it. If it is later touched, that's an eagerness win.
    ++cache_.stats_.closure_prefetch_hits;
    return static_cast<void*>(entry.value().local);
  }

  Result<std::uint64_t> address_of(std::uint32_t index) override {
    if (index >= locals_.size() || locals_[index] == 0) {
      return internal_error("address_of before prepare");
    }
    return locals_[index];
  }

  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId pointee) override {
    if (target.space == cache_.self_) {
      return cache_.fetcher_.swizzle_home(target, pointee);
    }
    return cache_.swizzle(target, pointee);
  }

 private:
  CacheManager& cache_;
  std::vector<std::uint64_t> locals_;
};

bool CacheManager::is_fill_open(PageIndex page) const {
  return std::find(fill_open_pages_.begin(), fill_open_pages_.end(), page) !=
         fill_open_pages_.end();
}

Status CacheManager::prefetch(const void* addr, std::uint64_t closure_budget) {
  const PageIndex page = arena_.page_of(addr);
  if (page == kInvalidPage) {
    return invalid_argument("prefetch of an address outside the cache");
  }
  const PageState state = pages_.info(page).state;
  if (state == PageState::kClean || state == PageState::kDirty) {
    return Status::ok();  // already resident
  }
  if (state == PageState::kEmpty) {
    return failed_precondition("prefetch of a page with no allocated data");
  }
  // A deliberate transfer, not an access violation: no fault cost.
  return fill_page(page, closure_budget);
}

Status CacheManager::prefetch_many(std::span<const void* const> addrs,
                                   const ParallelFetch& transfer) {
  if (filling_) {
    return internal_error("recursive page fill");
  }
  // Resolve the fillable pages behind the addresses. Prefetch is advisory:
  // foreign, resident, and unallocated addresses are skipped, not errors.
  std::vector<PageIndex> fill_pages;
  for (const void* addr : addrs) {
    const PageIndex page = arena_.page_of(addr);
    if (page == kInvalidPage) continue;
    const PageState state = pages_.info(page).state;
    if (state != PageState::kAllocated) continue;
    if (std::find(fill_pages.begin(), fill_pages.end(), page) == fill_pages.end()) {
      fill_pages.push_back(page);
    }
  }
  if (fill_pages.empty()) return Status::ok();

  filling_ = true;
  fill_cursor_ = Cursor{};
  fill_open_pages_.clear();

  // Open every requested page plus every page spanned by its entries — all
  // of them at once, so replies may land and fill in any order.
  Status result = Status::ok();
  std::vector<const AllocationEntry*> wanted;
  for (const PageIndex page : fill_pages) {
    auto entries = table_.entries_on_page(page);
    if (entries.empty()) continue;
    if (result.is_ok()) result = make_writable(page);
    for (const AllocationEntry* e : entries) {
      if (!result.is_ok()) break;
      const std::uint32_t span = pages_spanned(*e);
      for (std::uint32_t i = 0; i < span && result.is_ok(); ++i) {
        result = make_writable(e->page + i);
      }
      if (std::find(wanted.begin(), wanted.end(), e) == wanted.end()) {
        wanted.push_back(e);
      }
    }
    if (!result.is_ok()) break;
  }
  // Lazy cursors must stop pointing at pages that are about to turn
  // resident, or a later swizzle could hide an unfetched datum on them.
  for (auto& [origin, cursor] : lazy_cursors_) {
    if (cursor.page != kInvalidPage && is_fill_open(cursor.page)) {
      cursor = Cursor{};
    }
  }

  std::vector<PrefetchGroup> groups;
  for (const AllocationEntry* e : wanted) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const PrefetchGroup& g) {
      return g.home == e->pointer.space;
    });
    if (it == groups.end()) {
      groups.push_back(PrefetchGroup{e->pointer.space, {}});
      it = std::prev(groups.end());
    }
    it->pointers.push_back(e->pointer);
  }

  if (result.is_ok()) {
    stats_.fetches += groups.size();
    auto replies = transfer(groups);
    if (!replies) {
      result = replies.status();
    } else {
      // Same reply shape as the fault path: each FETCH_REPLY is
      // "count u32 | count x graph payload".
      for (ByteBuffer& payload : replies.value()) {
        xdr::Decoder dec(payload);
        auto count = dec.get_u32();
        if (!count) {
          result = count.status();
          break;
        }
        for (std::uint32_t i = 0; i < count.value() && result.is_ok(); ++i) {
          FillSink sink(*this);
          result = decode_graph_payload(codec_, arch_, payload, sink);
        }
        if (!result.is_ok()) break;
      }
    }
  }

  if (result.is_ok()) {
    ++stats_.fills;
    result = finish_fill_pages();
  }

  filling_ = false;
  fill_open_pages_.clear();
  fill_cursor_ = Cursor{};
  return result;
}

Status CacheManager::fill_page(PageIndex page, std::uint64_t closure_budget) {
  if (filling_) {
    return internal_error("recursive page fill");
  }
  auto entries = table_.entries_on_page(page);
  if (entries.empty()) {
    return failed_precondition("fault on page " + std::to_string(page) +
                               " with no allocated data");
  }

  filling_ = true;
  fill_cursor_ = Cursor{};
  fill_open_pages_.clear();

  Status result = Status::ok();
  // Open the faulted page and every page spanned by its entries.
  result = make_writable(page);
  for (const AllocationEntry* e : entries) {
    if (!result.is_ok()) break;
    const std::uint32_t span = pages_spanned(*e);
    for (std::uint32_t i = 0; i < span && result.is_ok(); ++i) {
      result = make_writable(e->page + i);
    }
  }

  // Lazy cursors must stop pointing at pages that are about to turn
  // resident, or a later swizzle could hide an unfetched datum on them.
  for (auto& [origin, cursor] : lazy_cursors_) {
    if (cursor.page != kInvalidPage && is_fill_open(cursor.page)) {
      cursor = Cursor{};
    }
  }

  // One fetch per home space owning data on this page (the cluster
  // strategy makes this a single round trip; kMixed may need several).
  std::map<SpaceId, std::vector<LongPointer>> by_home;
  for (const AllocationEntry* e : entries) {
    by_home[e->pointer.space].push_back(e->pointer);
  }
  if (result.is_ok()) {
    for (auto& [home, pointers] : by_home) {
      ++stats_.fetches;
      auto reply = fetcher_.fetch(home, pointers, closure_budget, session_);
      if (!reply) {
        result = reply.status();
        break;
      }
      // A FETCH_REPLY is "count u32 | count x graph payload": the home may
      // group its closure by several origin spaces (its own heap plus data
      // it holds resident for third spaces).
      xdr::Decoder dec(reply.value());
      auto count = dec.get_u32();
      if (!count) {
        result = count.status();
        break;
      }
      for (std::uint32_t i = 0; i < count.value() && result.is_ok(); ++i) {
        FillSink sink(*this);
        result = decode_graph_payload(codec_, arch_, reply.value(), sink);
      }
      if (!result.is_ok()) break;
    }
  }

  if (result.is_ok()) {
    ++stats_.fills;
    result = finish_fill_pages();
  }

  filling_ = false;
  fill_open_pages_.clear();
  fill_cursor_ = Cursor{};
  return result;
}

Status CacheManager::finish_fill_pages() {
  // Apply pending overlays first. The freshly fetched content is the
  // coherent baseline, so every page an overlaid entry spans gets its twin
  // snapshotted *before* the overlay bytes land — that keeps the overlay in
  // the delta the next collect_modified_deltas() emits.
  std::unordered_set<PageIndex> dirtied;
  for (const PageIndex p : fill_open_pages_) {
    for (const AllocationEntry* e : table_.entries_on_page(p)) {
      auto overlay = overlays_.find(e);
      if (overlay == overlays_.end()) continue;
      const std::uint32_t span = pages_spanned(*e);
      for (std::uint32_t i = 0; i < span; ++i) {
        const PageIndex q = e->page + i;
        if (!pages_.has_twin(q)) {
          pages_.snapshot_twin(q, arena_.page_base(q), arena_.page_size());
        }
        dirtied.insert(q);
      }
      for (const ByteRange& r : overlay->second.valid) {
        std::memcpy(e->local + r.offset, overlay->second.bytes.data() + r.offset,
                    r.len);
      }
      overlays_.erase(overlay);
    }
  }
  // Seal and protect every opened page.
  for (const PageIndex p : fill_open_pages_) {
    const bool dirty = dirtied.contains(p);
    SRPC_RETURN_IF_ERROR(
        pages_.transition(p, dirty ? PageState::kDirty : PageState::kClean));
    SRPC_RETURN_IF_ERROR(arena_.protect(
        p, dirty ? PageProtection::kReadWrite : PageProtection::kRead));
  }
  return Status::ok();
}

Status CacheManager::incorporate_clean_payload(ByteBuffer& payload) {
  if (filling_) {
    return internal_error("incorporate_clean_payload during a fill");
  }
  filling_ = true;
  fill_cursor_ = Cursor{};
  fill_open_pages_.clear();

  FillSink sink(*this);
  Status result = decode_graph_payload(codec_, arch_, payload, sink);
  if (result.is_ok()) {
    result = finish_fill_pages();
  }

  filling_ = false;
  fill_open_pages_.clear();
  fill_cursor_ = Cursor{};
  return result;
}

// ---------------------------------------------------------------------------
// Coherency support
// ---------------------------------------------------------------------------

std::vector<CacheManager::ModifiedObject> CacheManager::collect_modified() const {
  std::vector<ModifiedObject> out;
  std::unordered_set<const AllocationEntry*> seen;
  for (const PageIndex p : pages_.pages_in_state(PageState::kDirty)) {
    for (const AllocationEntry* e : table_.entries_on_page(p)) {
      if (seen.insert(e).second) {
        out.push_back({e->pointer, e->local});
      }
    }
  }
  for (const auto& [entry, overlay] : overlays_) {
    if (seen.insert(entry).second) {
      out.push_back({entry->pointer, overlay.bytes.data()});
    }
  }
  return out;
}

bool CacheManager::diff_entry(const AllocationEntry& entry,
                              std::vector<ByteRange>& out) const {
  const std::size_t page_size = arena_.page_size();
  const std::uint32_t span = pages_spanned(entry);
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.page + i;
    if (pages_.info(p).state != PageState::kDirty) continue;  // unchanged
    if (!pages_.has_twin(p)) return false;  // born dirty: no baseline
    // The slice of the entry living on page p, in object-relative terms.
    const std::uint64_t page_lo = static_cast<std::uint64_t>(i) * page_size;
    const std::uint64_t ent_lo = std::max<std::uint64_t>(entry.offset, page_lo);
    const std::uint64_t ent_hi =
        std::min<std::uint64_t>(entry.offset + entry.size, page_lo + page_size);
    if (ent_lo >= ent_hi) continue;
    const std::uint64_t in_page = ent_lo % page_size;
    diff_ranges(arena_.page_base(p) + in_page, pages_.twin(p) + in_page,
                static_cast<std::uint32_t>(ent_hi - ent_lo),
                static_cast<std::uint32_t>(ent_lo - entry.offset), kDiffMergeGap,
                out);
  }
  return true;
}

std::vector<CacheManager::ModifiedDatum> CacheManager::collect_modified_deltas()
    const {
  std::vector<ModifiedDatum> out;
  std::unordered_set<const AllocationEntry*> seen;
  for (const PageIndex p : pages_.pages_in_state(PageState::kDirty)) {
    for (const AllocationEntry* e : table_.entries_on_page(p)) {
      if (!seen.insert(e).second) continue;
      ModifiedDatum d;
      d.id = e->pointer;
      d.image = e->local;
      d.size = e->size;
      d.has_baseline = diff_entry(*e, d.dirty);
      if (!d.has_baseline) d.dirty.clear();
      out.push_back(std::move(d));
    }
  }
  for (const auto& [entry, overlay] : overlays_) {
    if (!seen.insert(entry).second) continue;
    ModifiedDatum d;
    d.id = entry->pointer;
    d.image = overlay.bytes.data();
    d.size = entry->size;
    d.has_baseline = true;  // only the received ranges are meaningful
    d.complete = overlay.valid.size() == 1 && overlay.valid[0].offset == 0 &&
                 overlay.valid[0].len == entry->size;
    d.dirty = overlay.valid;
    out.push_back(std::move(d));
  }
  return out;
}

Result<CacheManager::ModifiedDatum> CacheManager::modified_datum(
    const LongPointer& id) const {
  const AllocationEntry* entry = table_.find(id);
  if (entry == nullptr) {
    return not_found("modified_datum: " + id.to_string());
  }
  if (auto overlay = overlays_.find(entry); overlay != overlays_.end()) {
    ModifiedDatum d;
    d.id = entry->pointer;
    d.image = overlay->second.bytes.data();
    d.size = entry->size;
    d.has_baseline = true;
    d.complete = overlay->second.valid.size() == 1 &&
                 overlay->second.valid[0].offset == 0 &&
                 overlay->second.valid[0].len == entry->size;
    d.dirty = overlay->second.valid;
    return d;
  }
  bool on_dirty_page = false;
  const std::uint32_t span = pages_spanned(*entry);
  for (std::uint32_t i = 0; i < span && !on_dirty_page; ++i) {
    on_dirty_page = pages_.info(entry->page + i).state == PageState::kDirty;
  }
  if (!on_dirty_page) {
    return not_found("modified_datum: " + id.to_string() + " not modified");
  }
  ModifiedDatum d;
  d.id = entry->pointer;
  d.image = entry->local;
  d.size = entry->size;
  d.has_baseline = diff_entry(*entry, d.dirty);
  if (!d.has_baseline) d.dirty.clear();
  return d;
}

Status CacheManager::dirty_spanned_pages(const AllocationEntry& entry) {
  const std::uint32_t span = pages_spanned(entry);
  for (std::uint32_t i = 0; i < span; ++i) {
    const PageIndex p = entry.page + i;
    if (pages_.info(p).state == PageState::kClean) {
      // Pre-write image first: it is the baseline later diffs run against.
      if (!pages_.has_twin(p)) {
        pages_.snapshot_twin(p, arena_.page_base(p), arena_.page_size());
      }
      SRPC_RETURN_IF_ERROR(pages_.transition(p, PageState::kDirty));
      SRPC_RETURN_IF_ERROR(arena_.protect(p, PageProtection::kReadWrite));
    }
  }
  return Status::ok();
}

Result<void*> CacheManager::prepare_incoming_dirty(const LongPointer& id) {
  const AllocationEntry* entry = table_.find(id);
  if (entry == nullptr) {
    const TypeId type = id.type;
    if (type == kInvalidTypeId) {
      return invalid_argument("incoming dirty datum with no type: " + id.to_string());
    }
    auto layout = layouts_.layout_of(arch_, type);
    if (!layout) return layout.status();
    auto placed = place_lazy(id, layout.value()->size, layout.value()->align);
    if (!placed) return placed.status();
    entry = table_.find(id);
  }
  if (is_resident(entry->local)) {
    // Overwrite in place; the page joins the modified data set.
    SRPC_RETURN_IF_ERROR(dirty_spanned_pages(*entry));
    return static_cast<void*>(entry->local);
  }
  // Not resident: hold the value as an overlay, applied when (and if) the
  // page is filled; collect_modified() forwards it meanwhile. A full image
  // arrives, so the whole overlay is valid.
  Overlay& overlay = overlays_[entry];
  overlay.bytes.assign(entry->size, 0);
  overlay.valid.assign(1, ByteRange{0, entry->size});
  return static_cast<void*>(overlay.bytes.data());
}

Status CacheManager::apply_incoming_delta(const LongPointer& id,
                                          std::span<const ByteRange> ranges,
                                          const std::uint8_t* bytes) {
  const AllocationEntry* entry = table_.find(id);
  if (entry == nullptr) {
    const TypeId type = id.type;
    if (type == kInvalidTypeId) {
      return invalid_argument("incoming delta with no type: " + id.to_string());
    }
    auto layout = layouts_.layout_of(arch_, type);
    if (!layout) return layout.status();
    auto placed = place_lazy(id, layout.value()->size, layout.value()->align);
    if (!placed) return placed.status();
    entry = table_.find(id);
  }
  if (!ranges.empty() && ranges.back().end() > entry->size) {
    return protocol_error("delta range past the end of " + id.to_string());
  }
  if (is_resident(entry->local)) {
    SRPC_RETURN_IF_ERROR(dirty_spanned_pages(*entry));
    const std::uint8_t* src = bytes;
    for (const ByteRange& r : ranges) {
      std::memcpy(entry->local + r.offset, src, r.len);
      src += r.len;
    }
    return Status::ok();
  }
  // Non-resident: accumulate on the overlay and remember which ranges are
  // real, so a later fill only applies received bytes over fetched content.
  Overlay& overlay = overlays_[entry];
  if (overlay.bytes.size() != entry->size) {
    overlay.bytes.assign(entry->size, 0);
    overlay.valid.clear();
  }
  const std::uint8_t* src = bytes;
  for (const ByteRange& r : ranges) {
    std::memcpy(overlay.bytes.data() + r.offset, src, r.len);
    src += r.len;
    overlay.valid.push_back(r);
  }
  merge_ranges(overlay.valid);
  return Status::ok();
}

void CacheManager::renew_lease(SpaceId source, std::uint64_t vnow_ns) {
  auto it = leases_.find(source);
  if (it == leases_.end()) {
    SourceLease fresh;
    auto floor = lease_epoch_floor_.find(source);
    if (floor != lease_epoch_floor_.end()) fresh.epoch = floor->second;
    it = leases_.emplace(source, fresh).first;
  }
  if (vnow_ns > it->second.last_contact_ns) it->second.last_contact_ns = vnow_ns;
}

void CacheManager::touch_lease(SpaceId source, std::uint64_t vnow_ns) {
  auto it = leases_.find(source);
  if (it == leases_.end()) return;
  if (vnow_ns > it->second.last_contact_ns) it->second.last_contact_ns = vnow_ns;
}

const CacheManager::SourceLease* CacheManager::lease(SpaceId source) const {
  auto it = leases_.find(source);
  return it == leases_.end() ? nullptr : &it->second;
}

std::vector<SpaceId> CacheManager::lapsed_sources(std::uint64_t vnow_ns,
                                                  std::uint64_t ttl_ns) const {
  std::vector<SpaceId> out;
  for (const auto& [source, l] : leases_) {
    if (l.last_contact_ns + ttl_ns < vnow_ns) out.push_back(source);
  }
  return out;
}

std::size_t CacheManager::revoke_source(SpaceId source) {
  std::size_t revoked = 0;
  for (PageIndex p = 0; p < next_fresh_page_; ++p) {
    PageInfo& info = pages_.info(p);
    if (info.origin != source || info.kind != PageKind::kLazy) continue;
    if (info.state != PageState::kClean && info.state != PageState::kDirty) {
      continue;
    }
    (void)arena_.protect(p, PageProtection::kNone);
    info.state = PageState::kAllocated;  // table entries survive; bytes do not
    pages_.drop_twin(p);
    ++revoked;
  }
  for (auto it = overlays_.begin(); it != overlays_.end();) {
    if (it->first->pointer.space == source) {
      it = overlays_.erase(it);
    } else {
      ++it;
    }
  }
  // A fresh chain starts if the source ever comes back in a later session.
  lazy_cursors_.erase(source);
  // The lease ends with the data: a later fetch from the source (should it
  // turn out alive after all) starts a fresh one under a higher epoch.
  auto lit = leases_.find(source);
  if (lit != leases_.end()) {
    lease_epoch_floor_[source] = lit->second.epoch + 1;
    leases_.erase(lit);
  }
  return revoked;
}

void CacheManager::invalidate_all() {
  if (next_fresh_page_ > 0) {
    (void)set_protection(arena_.base(),
                         static_cast<std::size_t>(next_fresh_page_) * arena_.page_size(),
                         PageProtection::kNone);
  }
  table_.clear();
  overlays_.clear();
  pages_.reset();
  lazy_cursors_.clear();
  leases_.clear();
  alloc_cursor_ = Cursor{};
  fill_cursor_ = Cursor{};
  fill_open_pages_.clear();
  filling_ = false;
  next_fresh_page_ = 0;
}

}  // namespace srpc
