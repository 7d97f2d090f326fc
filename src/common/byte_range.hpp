// Byte ranges — the unit of sub-page dirty tracking.
//
// The coherency protocol's delta encoding (PROTOCOL.md "MODIFIED_DELTA")
// describes a modified object as a set of [offset, offset+len) ranges into
// its local image. These helpers diff an image against its twin snapshot,
// merge and intersect range sets, and fingerprint a (ranges, bytes) pair so
// the epoch tracker can tell "re-dirtied" from "already shipped".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace srpc {

struct ByteRange {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;

  [[nodiscard]] std::uint32_t end() const noexcept { return offset + len; }
  friend bool operator==(const ByteRange&, const ByteRange&) noexcept = default;
};

// Sorts by offset and coalesces overlapping or adjacent ranges in place.
void merge_ranges(std::vector<ByteRange>& ranges);

// Appends the ranges where `cur` differs from `twin` (both `len` bytes),
// offset by `base`. Gaps of fewer than `merge_gap` equal bytes between two
// differing runs are absorbed into one range — each range costs 8 bytes of
// wire header, so tiny islands are cheaper shipped together.
void diff_ranges(const std::uint8_t* cur, const std::uint8_t* twin,
                 std::uint32_t len, std::uint32_t base, std::uint32_t merge_gap,
                 std::vector<ByteRange>& out);

// Total byte count covered by a merged range set.
[[nodiscard]] std::uint64_t ranges_bytes(std::span<const ByteRange> ranges) noexcept;

// FNV-1a over the ranges and the image bytes they cover. Never returns 0,
// so 0 can mean "no fingerprint yet".
[[nodiscard]] std::uint64_t fingerprint_ranges(const std::uint8_t* image,
                                               std::span<const ByteRange> ranges) noexcept;

}  // namespace srpc
