// Per-arena page bookkeeping: the state machine behind the paper's
// protected-page discipline.
//
//   kEmpty      nothing allocated on the page            PROT_NONE
//   kAllocated  swizzled locations assigned, no data yet PROT_NONE
//   kClean      resident, unmodified                     PROT_READ
//   kDirty      resident, modified since last transfer   PROT_READ|WRITE
//
// A page becomes *sealed* the moment it turns resident: once protection is
// released, a first access to any further datum on it could no longer be
// detected (paper §3.2), so no new locations may be allocated there.
// Pages are handed out from index 0 up and recycled at session end, so
// pages_in_state() and reset() only visit pages below a high-water mark of
// those written through info() or transition() since the last reset().
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "vm/page_arena.hpp"

namespace srpc {

enum class PageState : std::uint8_t { kEmpty, kAllocated, kClean, kDirty };

// kLazy pages hold swizzled-but-unfetched locations and seal on residency.
// kAlloc pages hold locally-born objects (extended_malloc): every datum on
// them has data from birth, so they stay open for further allocation even
// while resident (paper §3.5).
enum class PageKind : std::uint8_t { kLazy, kAlloc };

std::string_view to_string(PageState s) noexcept;

struct PageInfo {
  PageState state = PageState::kEmpty;
  PageKind kind = PageKind::kLazy;
  bool sealed = false;
  std::uint32_t bump = 0;          // next free byte offset for allocation
  SpaceId origin = kInvalidSpaceId;  // home space this page clusters (strategy-dependent)
};

class PageTable {
 public:
  explicit PageTable(std::size_t page_count) : pages_(page_count) {}

  [[nodiscard]] PageInfo& info(PageIndex page) { return pages_.at(touch(page)); }
  [[nodiscard]] const PageInfo& info(PageIndex page) const { return pages_.at(page); }
  [[nodiscard]] std::size_t page_count() const noexcept { return pages_.size(); }

  // Validated state transition; the protection change itself is the cache
  // manager's job (it owns the arena).
  Status transition(PageIndex page, PageState to);

  // All pages currently in the given state, in index order.
  [[nodiscard]] std::vector<PageIndex> pages_in_state(PageState s) const;

  // Twin slots: a copy of a page's bytes taken the instant it turned
  // writable, so the cache manager can later diff the live page against the
  // pre-write image and ship only the bytes that changed. Twins exist only
  // for pages that faulted clean→dirty (or had an overlay applied); pages
  // born dirty (local allocation) have no coherent baseline and no twin.
  void snapshot_twin(PageIndex page, const std::uint8_t* bytes, std::size_t len);
  [[nodiscard]] bool has_twin(PageIndex page) const {
    return twins_.contains(page);
  }
  // Valid only when has_twin(page); pointer stable until drop/reset.
  [[nodiscard]] const std::uint8_t* twin(PageIndex page) const {
    return twins_.at(page).data();
  }
  void drop_twin(PageIndex page) { twins_.erase(page); }

  // Resets every page to kEmpty/unsealed (session-end invalidation).
  void reset();

 private:
  PageIndex touch(PageIndex page) noexcept {
    if (page < pages_.size()) high_water_ = std::max<std::size_t>(high_water_, page + 1);
    return page;
  }

  std::vector<PageInfo> pages_;
  std::size_t high_water_ = 0;
  std::unordered_map<PageIndex, std::vector<std::uint8_t>> twins_;
};

}  // namespace srpc
