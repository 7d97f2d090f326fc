#include "common/byte_range.hpp"

#include <algorithm>

namespace srpc {

void merge_ranges(std::vector<ByteRange>& ranges) {
  if (ranges.size() < 2) return;
  std::sort(ranges.begin(), ranges.end(),
            [](const ByteRange& a, const ByteRange& b) { return a.offset < b.offset; });
  std::size_t out = 0;
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].offset <= ranges[out].end()) {
      const std::uint32_t end = std::max(ranges[out].end(), ranges[i].end());
      ranges[out].len = end - ranges[out].offset;
    } else {
      ranges[++out] = ranges[i];
    }
  }
  ranges.resize(out + 1);
}

void diff_ranges(const std::uint8_t* cur, const std::uint8_t* twin,
                 std::uint32_t len, std::uint32_t base, std::uint32_t merge_gap,
                 std::vector<ByteRange>& out) {
  std::uint32_t i = 0;
  while (i < len) {
    if (cur[i] == twin[i]) {
      ++i;
      continue;
    }
    const std::uint32_t start = i;
    std::uint32_t last_diff = i;
    ++i;
    // Extend the run while differing bytes keep appearing within merge_gap.
    while (i < len && i - last_diff <= merge_gap) {
      if (cur[i] != twin[i]) last_diff = i;
      ++i;
    }
    out.push_back(ByteRange{base + start, last_diff - start + 1});
    i = last_diff + 1;
  }
}

std::uint64_t ranges_bytes(std::span<const ByteRange> ranges) noexcept {
  std::uint64_t total = 0;
  for (const ByteRange& r : ranges) total += r.len;
  return total;
}

std::uint64_t fingerprint_ranges(const std::uint8_t* image,
                                 std::span<const ByteRange> ranges) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (k * 8)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ByteRange& r : ranges) {
    mix(r.offset);
    mix(r.len);
    for (std::uint32_t k = 0; k < r.len; ++k) {
      h ^= image[r.offset + k];
      h *= 0x100000001b3ULL;
    }
  }
  return h == 0 ? 1 : h;
}

}  // namespace srpc
