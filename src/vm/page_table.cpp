#include "vm/page_table.hpp"

#include <algorithm>

namespace srpc {

std::string_view to_string(PageState s) noexcept {
  switch (s) {
    case PageState::kEmpty:
      return "EMPTY";
    case PageState::kAllocated:
      return "ALLOCATED";
    case PageState::kClean:
      return "CLEAN";
    case PageState::kDirty:
      return "DIRTY";
  }
  return "?";
}

Status PageTable::transition(PageIndex page, PageState to) {
  if (page >= pages_.size()) {
    return out_of_range("page " + std::to_string(page) + " outside table");
  }
  PageInfo& info = pages_[page];
  touch(page);
  const PageState from = info.state;
  const bool legal = (from == PageState::kEmpty && to == PageState::kAllocated) ||
                     (from == PageState::kAllocated && to == PageState::kClean) ||
                     (from == PageState::kAllocated && to == PageState::kDirty) ||
                     (from == PageState::kClean && to == PageState::kDirty) ||
                     (from == PageState::kDirty && to == PageState::kClean);
  if (!legal) {
    return failed_precondition(std::string("illegal page transition ") +
                               std::string(to_string(from)) + " -> " +
                               std::string(to_string(to)) + " on page " +
                               std::to_string(page));
  }
  info.state = to;
  if (info.kind == PageKind::kLazy &&
      (to == PageState::kClean || to == PageState::kDirty)) {
    info.sealed = true;
  }
  return Status::ok();
}

std::vector<PageIndex> PageTable::pages_in_state(PageState s) const {
  std::vector<PageIndex> out;
  // Above the high-water mark every page is kEmpty.
  const std::size_t end = s == PageState::kEmpty ? pages_.size() : high_water_;
  for (std::size_t i = 0; i < end; ++i) {
    if (pages_[i].state == s) out.push_back(static_cast<PageIndex>(i));
  }
  return out;
}

void PageTable::snapshot_twin(PageIndex page, const std::uint8_t* bytes,
                              std::size_t len) {
  twins_[page].assign(bytes, bytes + len);
}

void PageTable::reset() {
  std::fill_n(pages_.begin(), high_water_, PageInfo{});
  high_water_ = 0;
  twins_.clear();
}

}  // namespace srpc
