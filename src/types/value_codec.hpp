// Descriptor-driven value encoding (paper §3.2, "data representations must
// be encoded and decoded to preserve their data types in a heterogeneous
// environment ... except for the case of pointers, which must be unswizzled
// and swizzled").
//
// encode() walks a type's flattened Layout plan (LayoutLeaf list) over a
// memory image laid out for a given ArchModel and emits canonical XDR;
// decode() does the reverse. Pointer
// fields are delegated to a PointerFieldCodec, because their wire form
// depends on context: argument marshalling sends full long pointers
// (LongPointerFieldCodec), while graph payloads use a compact tagged form
// (core/graph_payload.hpp).
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "swizzle/long_pointer.hpp"
#include "types/arch.hpp"
#include "types/layout.hpp"
#include "types/type_registry.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

// Translates between in-memory ordinary pointers and long pointers.
// Implementations live in core/ (the cache manager swizzles via the data
// allocation table; homes unswizzle via the managed heap).
class PointerTranslator {
 public:
  virtual ~PointerTranslator() = default;

  // memory -> wire. `ordinary` is the raw pointer value read from the image
  // (zero means null and never reaches here).
  virtual Result<LongPointer> unswizzle(std::uint64_t ordinary, TypeId pointee) = 0;

  // wire -> memory. Returns the ordinary pointer value to store (the long
  // pointer is never null here).
  virtual Result<std::uint64_t> swizzle(const LongPointer& pointer, TypeId pointee) = 0;
};

// How pointer *fields* inside a value appear on the wire.
class PointerFieldCodec {
 public:
  virtual ~PointerFieldCodec() = default;
  virtual Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) = 0;
  virtual Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) = 0;
};

// The plain form: every pointer field is a 16-byte long pointer (null
// encodes as the null long pointer), translated via a PointerTranslator.
class LongPointerFieldCodec final : public PointerFieldCodec {
 public:
  explicit LongPointerFieldCodec(PointerTranslator& translator)
      : translator_(translator) {}
  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override;
  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override;

 private:
  PointerTranslator& translator_;
};

// For values that must be pointer-free: a null pointer field travels as the
// null long pointer (16 bytes, as wire_size() assumes); any other pointer is
// rejected with FAILED_PRECONDITION on either side.
class NullOnlyFieldCodec final : public PointerFieldCodec {
 public:
  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override;
  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override;
};

// Canonical XDR bytes of one scalar: RFC 4506 widens everything narrower
// than a hyper to a 4-byte unit.
[[nodiscard]] inline std::uint64_t xdr_scalar_bytes(ScalarType s) noexcept {
  return scalar_size(s) <= 4 ? 4 : 8;
}

struct ValueCodec {
  const TypeRegistry& registry;
  const LayoutEngine& layouts;

  // Encodes the object at `src` (laid out per `arch`) as canonical XDR.
  Status encode(const ArchModel& arch, TypeId type, const void* src,
                xdr::Encoder& enc, PointerFieldCodec& ptr) const;

  // Decodes canonical XDR into the object at `dst` (laid out per `arch`).
  Status decode(const ArchModel& arch, TypeId type, void* dst,
                xdr::Decoder& dec, PointerFieldCodec& ptr) const;

  // Canonical wire size of one value of `type`, assuming each pointer field
  // occupies `pointer_wire_bytes` (16 for the long-pointer form; callers
  // budgeting compact graph payloads pass their own estimate).
  Result<std::uint64_t> wire_size(TypeId type,
                                  std::uint64_t pointer_wire_bytes =
                                      kLongPointerWireSize) const;
};

}  // namespace srpc
