// Virtual-memory substrate: arenas, protection, fault dispatch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "vm/fault_dispatcher.hpp"
#include "vm/page_arena.hpp"
#include "vm/page_table.hpp"
#include "vm/protection.hpp"

namespace srpc {
namespace {

TEST(PageArena, CreateAndAddressing) {
  auto arena = PageArena::create(8, 4096);
  ASSERT_TRUE(arena.is_ok()) << arena.status().to_string();
  PageArena a = std::move(arena).value();
  EXPECT_EQ(a.page_count(), 8u);
  EXPECT_EQ(a.byte_size(), 8u * 4096u);
  EXPECT_TRUE(a.contains(a.base()));
  EXPECT_TRUE(a.contains(a.base() + a.byte_size() - 1));
  EXPECT_FALSE(a.contains(a.base() + a.byte_size()));
  EXPECT_EQ(a.page_of(a.base() + 4096), 1u);
  EXPECT_EQ(a.page_of(a.base() + 4095), 0u);
  EXPECT_EQ(a.page_of(nullptr), kInvalidPage);
}

TEST(PageArena, RejectsBadPageSize) {
  auto arena = PageArena::create(1, 1000);
  ASSERT_FALSE(arena.is_ok());
  EXPECT_EQ(arena.status().code(), StatusCode::kInvalidArgument);
}

TEST(PageArena, ProtectionTransitionsAllowAccess) {
  auto arena = PageArena::create(2, 4096);
  ASSERT_TRUE(arena.is_ok());
  PageArena a = std::move(arena).value();
  ASSERT_TRUE(a.protect(0, PageProtection::kReadWrite).is_ok());
  std::memset(a.page_base(0), 0xAB, 4096);
  EXPECT_EQ(a.page_base(0)[100], 0xAB);
  ASSERT_TRUE(a.protect(0, PageProtection::kRead).is_ok());
  EXPECT_EQ(a.page_base(0)[100], 0xAB);  // reads still fine
}

TEST(PageTable, LegalTransitions) {
  PageTable table(4);
  EXPECT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_TRUE(table.transition(0, PageState::kClean).is_ok());
  EXPECT_TRUE(table.info(0).sealed);
  EXPECT_TRUE(table.transition(0, PageState::kDirty).is_ok());
  EXPECT_TRUE(table.transition(0, PageState::kClean).is_ok());
}

TEST(PageTable, IllegalTransitionsRejected) {
  PageTable table(4);
  EXPECT_FALSE(table.transition(0, PageState::kClean).is_ok());   // empty -> clean
  EXPECT_FALSE(table.transition(0, PageState::kDirty).is_ok());   // empty -> dirty
  ASSERT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_FALSE(table.transition(0, PageState::kAllocated).is_ok());
  EXPECT_FALSE(table.transition(9, PageState::kAllocated).is_ok());  // out of range
}

TEST(PageTable, AllocPagesDoNotSeal) {
  PageTable table(2);
  table.info(0).kind = PageKind::kAlloc;
  ASSERT_TRUE(table.transition(0, PageState::kAllocated).is_ok());
  ASSERT_TRUE(table.transition(0, PageState::kDirty).is_ok());
  EXPECT_FALSE(table.info(0).sealed);
}

TEST(PageTable, ResetClearsEverything) {
  PageTable table(2);
  ASSERT_TRUE(table.transition(1, PageState::kAllocated).is_ok());
  table.info(1).bump = 100;
  table.reset();
  EXPECT_EQ(table.info(1).state, PageState::kEmpty);
  EXPECT_EQ(table.info(1).bump, 0u);
  EXPECT_EQ(table.pages_in_state(PageState::kAllocated).size(), 0u);
}

TEST(PageTable, ScanAndResetReachTheArenaEndAndMultiPageData) {
  PageTable table(16384);
  // A datum spanning pages 100..103, and one on the arena's last page.
  std::vector<PageIndex> dirty = {100, 101, 102, 103, 16383};
  for (const PageIndex p : dirty) {
    table.info(p).bump = 4096;
    ASSERT_TRUE(table.transition(p, PageState::kAllocated).is_ok());
    ASSERT_TRUE(table.transition(p, PageState::kDirty).is_ok());
  }
  EXPECT_EQ(table.pages_in_state(PageState::kDirty), dirty);
  EXPECT_EQ(table.pages_in_state(PageState::kEmpty).size(), 16384u - dirty.size());
  table.reset();
  EXPECT_TRUE(table.pages_in_state(PageState::kDirty).empty());
  EXPECT_EQ(table.pages_in_state(PageState::kEmpty).size(), 16384u);
  const PageTable& view = table;
  for (const PageIndex p : dirty) {
    EXPECT_EQ(view.info(p).state, PageState::kEmpty);
    EXPECT_EQ(view.info(p).bump, 0u);
    EXPECT_FALSE(view.info(p).sealed);
  }
}

TEST(PageTable, PagesAboveTheMarkStayEmptyAcrossResets) {
  PageTable table(64);
  const PageTable& view = table;
  for (const std::size_t used : {10u, 3u, 20u, 1u}) {
    for (PageIndex p = 0; p < used; ++p) {
      table.info(p).origin = 7;
      ASSERT_TRUE(table.transition(p, PageState::kAllocated).is_ok());
      ASSERT_TRUE(table.transition(p, PageState::kClean).is_ok());
    }
    EXPECT_EQ(table.pages_in_state(PageState::kClean).size(), used);
    EXPECT_EQ(table.pages_in_state(PageState::kEmpty).size(), 64u - used);
    for (PageIndex p = static_cast<PageIndex>(used); p < 64; ++p) {
      EXPECT_EQ(view.info(p).state, PageState::kEmpty) << p;
      EXPECT_EQ(view.info(p).origin, kInvalidSpaceId) << p;
      EXPECT_FALSE(view.info(p).sealed) << p;
    }
    // Bookkeeping written on a page that never changed state is cleared
    // too (checked by the next cycle's loop above).
    table.info(static_cast<PageIndex>(used + 5)).origin = 9;
    table.reset();
    EXPECT_EQ(table.pages_in_state(PageState::kEmpty).size(), 64u);
  }
}

// A fault handler that fills the page with a marker and opens it.
class FillOnFault final : public FaultHandler {
 public:
  explicit FillOnFault(PageArena& arena) : arena_(arena) {}

  bool on_fault(void* addr, FaultAccess access) override {
    last_access_ = access;
    const PageIndex page = arena_.page_of(addr);
    if (page == kInvalidPage) return false;
    if (!arena_.protect(page, PageProtection::kReadWrite).is_ok()) return false;
    std::memset(arena_.page_base(page), 0x5A, arena_.page_size());
    ++faults_;
    return true;
  }

  int faults() const { return faults_; }
  FaultAccess last_access() const { return last_access_; }

 private:
  PageArena& arena_;
  int faults_ = 0;
  FaultAccess last_access_ = FaultAccess::kUnknown;
};

TEST(FaultDispatcher, ResolvesReadFaultAndRestartsInstruction) {
  auto arena_or = PageArena::create(4, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());

  volatile std::uint8_t* p = arena.page_base(2) + 17;
  const std::uint8_t value = *p;  // faults, handler fills page, retry reads
  EXPECT_EQ(value, 0x5A);
  EXPECT_EQ(handler.faults(), 1);
#if defined(__x86_64__)
  EXPECT_EQ(handler.last_access(), FaultAccess::kRead);
#endif

  // Second read: no further fault.
  const std::uint8_t again = *p;
  EXPECT_EQ(again, 0x5A);
  EXPECT_EQ(handler.faults(), 1);

  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, ClassifiesWriteFaults) {
  auto arena_or = PageArena::create(1, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());

  arena.page_base(0)[0] = 1;  // write fault on PROT_NONE
  EXPECT_EQ(handler.faults(), 1);
#if defined(__x86_64__)
  EXPECT_EQ(handler.last_access(), FaultAccess::kWrite);
#endif
  EXPECT_EQ(arena.page_base(0)[0], 1);

  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, TracksRegistrations) {
  auto arena_or = PageArena::create(1, 4096);
  ASSERT_TRUE(arena_or.is_ok());
  PageArena arena = std::move(arena_or).value();
  FillOnFault handler(arena);
  const std::size_t before = FaultDispatcher::instance().range_count();
  ASSERT_TRUE(FaultDispatcher::instance()
                  .register_range(arena.base(), arena.byte_size(), &handler)
                  .is_ok());
  EXPECT_EQ(FaultDispatcher::instance().range_count(), before + 1);
  ASSERT_TRUE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
  EXPECT_EQ(FaultDispatcher::instance().range_count(), before);
  EXPECT_FALSE(FaultDispatcher::instance().unregister_range(arena.base()).is_ok());
}

TEST(FaultDispatcher, RejectsBadRegistrations) {
  EXPECT_FALSE(
      FaultDispatcher::instance().register_range(nullptr, 10, nullptr).is_ok());
}

}  // namespace
}  // namespace srpc
