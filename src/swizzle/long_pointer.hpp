// Long-format pointers (paper §3.2).
//
// A long pointer locates data in the whole distributed system:
//   - an address space identifier,
//   - an address valid within that space, and
//   - a data type specifier (so heterogeneous spaces can rebuild the value).
// Hardware only dereferences ordinary pointers, so long pointers exist on
// the wire and in runtime tables; the cache translates between the two.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "types/type_descriptor.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

struct LongPointer {
  SpaceId space = kInvalidSpaceId;
  std::uint64_t address = 0;  // valid within `space` (home address)
  TypeId type = kInvalidTypeId;  // type of the referenced data

  [[nodiscard]] bool is_null() const noexcept {
    return space == kInvalidSpaceId && address == 0;
  }
  static LongPointer null() noexcept { return {}; }

  friend bool operator==(const LongPointer& a, const LongPointer& b) noexcept {
    return a.space == b.space && a.address == b.address && a.type == b.type;
  }

  [[nodiscard]] std::string to_string() const;
};

struct LongPointerHash {
  std::size_t operator()(const LongPointer& p) const noexcept {
    std::size_t h = std::hash<std::uint64_t>{}(p.address);
    h ^= std::hash<std::uint32_t>{}(p.space) + 0x9E3779B9U + (h << 6) + (h >> 2);
    h ^= std::hash<std::uint32_t>{}(p.type) + 0x9E3779B9U + (h << 6) + (h >> 2);
    return h;
  }
};

// Wire form: space(u32) address(u64) type(u32) — 16 bytes.
void encode_long_pointer(xdr::Encoder& enc, const LongPointer& p);
Result<LongPointer> decode_long_pointer(xdr::Decoder& dec);

inline constexpr std::size_t kLongPointerWireSize = 16;

}  // namespace srpc
