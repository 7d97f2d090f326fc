#include "types/value_codec.hpp"

namespace srpc {

namespace {

// Sign-extends the low `bits` of `v`.
std::int64_t sign_extend(std::uint64_t v, unsigned bits) noexcept {
  const unsigned shift = 64 - bits;
  return static_cast<std::int64_t>(v << shift) >> shift;
}

Status encode_scalar(const ArchModel& arch, ScalarType s, const void* src,
                     xdr::Encoder& enc) {
  const std::uint32_t size = scalar_size(s);
  const std::uint64_t raw = read_scaled_uint(src, size, arch.endian);
  switch (s) {
    case ScalarType::kI8:
    case ScalarType::kI16:
    case ScalarType::kI32:
      enc.put_i32(static_cast<std::int32_t>(sign_extend(raw, size * 8)));
      return Status::ok();
    case ScalarType::kU8:
    case ScalarType::kU16:
    case ScalarType::kU32:
      enc.put_u32(static_cast<std::uint32_t>(raw));
      return Status::ok();
    case ScalarType::kBool:
      enc.put_bool(raw != 0);
      return Status::ok();
    case ScalarType::kI64:
    case ScalarType::kU64:
      enc.put_u64(raw);
      return Status::ok();
    case ScalarType::kF32:
      enc.put_u32(static_cast<std::uint32_t>(raw));  // IEEE bits, already canonical
      return Status::ok();
    case ScalarType::kF64:
      enc.put_u64(raw);
      return Status::ok();
  }
  return internal_error("unreachable scalar kind");
}

Status decode_scalar(const ArchModel& arch, ScalarType s, void* dst, xdr::Decoder& dec) {
  std::uint64_t raw = 0;
  if (xdr_scalar_bytes(s) == 4) {
    auto v = dec.get_u32();
    if (!v) return v.status();
    raw = v.value();
  } else {
    auto v = dec.get_u64();
    if (!v) return v.status();
    raw = v.value();
  }
  write_scaled_uint(dst, scalar_size(s), arch.endian, raw);
  return Status::ok();
}

// Canonical bytes of one value of the plan `leaves`, pointer fields
// counted at `pointer_wire_bytes` each.
std::uint64_t plan_wire_size(std::span<const LayoutLeaf> leaves,
                             std::uint64_t pointer_wire_bytes) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const LayoutLeaf& leaf = leaves[i];
    switch (leaf.kind) {
      case LayoutLeaf::Kind::kScalar:
        total += xdr_scalar_bytes(leaf.scalar);
        break;
      case LayoutLeaf::Kind::kPointer:
        total += pointer_wire_bytes;
        break;
      case LayoutLeaf::Kind::kRepeat:
        total += leaf.count *
                 plan_wire_size(leaves.subspan(i + 1, leaf.body), pointer_wire_bytes);
        i += leaf.body;
        break;
    }
  }
  return total;
}

}  // namespace

Status LongPointerFieldCodec::encode(xdr::Encoder& enc, std::uint64_t ordinary,
                                     TypeId pointee) {
  if (ordinary == 0) {
    encode_long_pointer(enc, LongPointer::null());
    return Status::ok();
  }
  auto lp = translator_.unswizzle(ordinary, pointee);
  if (!lp) return lp.status();
  encode_long_pointer(enc, lp.value());
  return Status::ok();
}

Result<std::uint64_t> LongPointerFieldCodec::decode(xdr::Decoder& dec, TypeId pointee) {
  auto lp = decode_long_pointer(dec);
  if (!lp) return lp.status();
  if (lp.value().is_null()) return std::uint64_t{0};
  return translator_.swizzle(lp.value(), pointee);
}

Status NullOnlyFieldCodec::encode(xdr::Encoder& enc, std::uint64_t ordinary,
                                  TypeId pointee) {
  (void)pointee;
  if (ordinary != 0) {
    return failed_precondition("non-null pointer (0x" + std::to_string(ordinary) +
                               ") where no pointers are allowed");
  }
  encode_long_pointer(enc, LongPointer::null());
  return Status::ok();
}

Result<std::uint64_t> NullOnlyFieldCodec::decode(xdr::Decoder& dec, TypeId pointee) {
  (void)pointee;
  auto lp = decode_long_pointer(dec);
  if (!lp) return lp.status();
  if (!lp.value().is_null()) {
    return failed_precondition("non-null pointer " + lp.value().to_string() +
                               " where no pointers are allowed");
  }
  return std::uint64_t{0};
}

Status ValueCodec::encode(const ArchModel& arch, TypeId type, const void* src,
                          xdr::Encoder& enc, PointerFieldCodec& ptr) const {
  auto layout = layouts.layout_of(arch, type);
  if (!layout) return layout.status();
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  return for_each_leaf(
      layout.value()->leaves, 0,
      [&](const LayoutLeaf& leaf, std::uint64_t offset) -> Status {
        if (leaf.kind == LayoutLeaf::Kind::kScalar) {
          return encode_scalar(arch, leaf.scalar, bytes + offset, enc);
        }
        return ptr.encode(enc, read_scaled_uint(bytes + offset, arch.pointer_size, arch.endian),
                          leaf.pointee);
      });
}

Status ValueCodec::decode(const ArchModel& arch, TypeId type, void* dst,
                          xdr::Decoder& dec, PointerFieldCodec& ptr) const {
  auto layout = layouts.layout_of(arch, type);
  if (!layout) return layout.status();
  auto* bytes = static_cast<std::uint8_t*>(dst);
  return for_each_leaf(
      layout.value()->leaves, 0,
      [&](const LayoutLeaf& leaf, std::uint64_t offset) -> Status {
        if (leaf.kind == LayoutLeaf::Kind::kScalar) {
          return decode_scalar(arch, leaf.scalar, bytes + offset, dec);
        }
        auto ordinary = ptr.decode(dec, leaf.pointee);
        if (!ordinary) return ordinary.status();
        if (arch.pointer_size < 8 &&
            ordinary.value() >= (1ULL << (8 * arch.pointer_size))) {
          return internal_error("swizzled pointer does not fit " +
                                std::to_string(arch.pointer_size) + "-byte pointer");
        }
        write_scaled_uint(bytes + offset, arch.pointer_size, arch.endian, ordinary.value());
        return Status::ok();
      });
}

Result<std::uint64_t> ValueCodec::wire_size(TypeId type,
                                            std::uint64_t pointer_wire_bytes) const {
  // The canonical form is arch-free, so any architecture's plan will do.
  auto layout = layouts.layout_of(host_arch(), type);
  if (!layout) return layout.status();
  return plan_wire_size(layout.value()->leaves, pointer_wire_bytes);
}

}  // namespace srpc
