// Flattened layout plans (LayoutLeaf lists): the codec, wire_size and the
// pointer walker loop over one plan per type. These tests hold the plan
// walk to a reference that walks the type descriptors recursively, one
// field at a time, on both modelled architectures.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/closure.hpp"
#include "types/layout.hpp"
#include "types/type_registry.hpp"
#include "types/value_codec.hpp"

namespace srpc {
namespace {

// Pointer fields as {pointee, ordinary value}: 12 bytes, any value.
class RawPointerCodec final : public PointerFieldCodec {
 public:
  static constexpr std::uint64_t kWireBytes = 12;

  Status encode(xdr::Encoder& enc, std::uint64_t ordinary, TypeId pointee) override {
    enc.put_u32(pointee);
    enc.put_u64(ordinary);
    return Status::ok();
  }
  Result<std::uint64_t> decode(xdr::Decoder& dec, TypeId pointee) override {
    auto tag = dec.get_u32();
    if (!tag) return tag.status();
    if (tag.value() != pointee) return protocol_error("pointee mismatch");
    return dec.get_u64();
  }
};

// One scalar or pointer of a value, found by walking descriptors.
struct RefLeaf {
  std::uint64_t offset = 0;
  bool is_pointer = false;
  ScalarType scalar = ScalarType::kI8;
  TypeId pointee = kInvalidTypeId;
};

void reference_leaves(const TypeRegistry& registry, const LayoutEngine& layouts,
                      const ArchModel& arch, TypeId type, std::uint64_t base,
                      std::vector<RefLeaf>& out) {
  const TypeDescriptor& desc = registry.get(type);
  switch (desc.kind()) {
    case TypeKind::kScalar:
      out.push_back({base, false, desc.scalar(), kInvalidTypeId});
      return;
    case TypeKind::kPointer:
      out.push_back({base, true, ScalarType::kI8, desc.pointee()});
      return;
    case TypeKind::kArray: {
      const std::uint64_t stride = layouts.size_of(arch, desc.element());
      for (std::uint32_t i = 0; i < desc.count(); ++i) {
        reference_leaves(registry, layouts, arch, desc.element(), base + i * stride, out);
      }
      return;
    }
    case TypeKind::kStruct: {
      const Layout& layout = *layouts.layout_of(arch, type).value();
      for (std::size_t i = 0; i < desc.fields().size(); ++i) {
        reference_leaves(registry, layouts, arch, desc.fields()[i].type,
                         base + layout.field_offsets[i], out);
      }
      return;
    }
  }
}

// Canonical XDR of `image`, scalar by scalar as RFC 4506 lays them out.
ByteBuffer reference_encode(const std::vector<RefLeaf>& leaves, const ArchModel& arch,
                            const std::uint8_t* image, PointerFieldCodec& ptr) {
  ByteBuffer out;
  xdr::Encoder enc(out);
  for (const RefLeaf& leaf : leaves) {
    if (leaf.is_pointer) {
      ptr.encode(enc, read_scaled_uint(image + leaf.offset, arch.pointer_size, arch.endian),
                 leaf.pointee)
          .check();
      continue;
    }
    const std::uint32_t size = scalar_size(leaf.scalar);
    const std::uint64_t raw = read_scaled_uint(image + leaf.offset, size, arch.endian);
    const unsigned shift = 64 - size * 8;
    switch (leaf.scalar) {
      case ScalarType::kI8:
      case ScalarType::kI16:
      case ScalarType::kI32:
        enc.put_i32(static_cast<std::int32_t>(static_cast<std::int64_t>(raw << shift) >> shift));
        break;
      case ScalarType::kBool:
        enc.put_bool(raw != 0);
        break;
      case ScalarType::kU8:
      case ScalarType::kU16:
      case ScalarType::kU32:
      case ScalarType::kF32:
        enc.put_u32(static_cast<std::uint32_t>(raw));
        break;
      default:
        enc.put_u64(raw);
    }
  }
  return out;
}

std::vector<std::uint8_t> bytes_of(const ByteBuffer& b) {
  return {b.data(), b.data() + b.size()};
}

class LayoutPlanTest : public ::testing::TestWithParam<const ArchModel*> {
 protected:
  LayoutPlanTest() {
    const auto id = [](ScalarType s) { return TypeRegistry::scalar_id(s); };
    node_ = registry_.declare_struct("PNode").value();
    const TypeId node_ptr = registry_.pointer_to(node_);
    registry_.define_struct(node_, {{"key", id(ScalarType::kI64)}, {"next", node_ptr}})
        .check();
    inner_ = registry_
                 .register_struct("PInner", {{"a", id(ScalarType::kI16)},
                                             {"b", id(ScalarType::kF64)},
                                             {"p", node_ptr},
                                             {"c", id(ScalarType::kBool)}})
                 .value();
    outer_ = registry_
                 .register_struct(
                     "POuter",
                     {{"tag", id(ScalarType::kU8)},
                      {"inner", inner_},
                      {"pair", registry_.array_of(inner_, 3)},
                      {"ptrs", registry_.array_of(node_ptr, 4)},
                      {"grid", registry_.array_of(registry_.array_of(id(ScalarType::kI8), 3), 2)},
                      {"tail", id(ScalarType::kI32)},
                      {"f", id(ScalarType::kF32)},
                      {"u", id(ScalarType::kU16)}})
                 .value();
  }

  const ArchModel& arch() const { return *GetParam(); }

  // A random image of `type`; pointer fields are zero (null) one time in
  // three so the walker's null skipping is exercised.
  std::vector<std::uint8_t> random_image(TypeId type, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> image(layouts_.size_of(arch(), type));
    for (auto& b : image) b = static_cast<std::uint8_t>(rng.next());
    std::vector<RefLeaf> leaves;
    reference_leaves(registry_, layouts_, arch(), type, 0, leaves);
    for (const RefLeaf& leaf : leaves) {
      if (leaf.is_pointer && rng.next() % 3 == 0) {
        write_scaled_uint(image.data() + leaf.offset, arch().pointer_size, arch().endian, 0);
      }
    }
    return image;
  }

  // Encode, wire_size, decode and walk_pointer_fields of `type` against
  // the reference walk.
  void check_against_reference(TypeId type, std::uint64_t seed) {
    const auto image = random_image(type, seed);
    std::vector<RefLeaf> leaves;
    reference_leaves(registry_, layouts_, arch(), type, 0, leaves);
    RawPointerCodec ptr;

    const ByteBuffer expected = reference_encode(leaves, arch(), image.data(), ptr);
    ByteBuffer wire;
    xdr::Encoder enc(wire);
    ASSERT_TRUE(codec_.encode(arch(), type, image.data(), enc, ptr).is_ok());
    EXPECT_EQ(bytes_of(wire), bytes_of(expected));

    auto size = codec_.wire_size(type, RawPointerCodec::kWireBytes);
    ASSERT_TRUE(size.is_ok());
    EXPECT_EQ(size.value(), wire.size());

    // Decoding writes every leaf back: re-encoding the decoded image
    // reproduces the wire bytes.
    std::vector<std::uint8_t> decoded(image.size(), 0);
    xdr::Decoder dec(wire);
    ASSERT_TRUE(codec_.decode(arch(), type, decoded.data(), dec, ptr).is_ok());
    EXPECT_EQ(wire.remaining(), 0u);
    EXPECT_EQ(bytes_of(reference_encode(leaves, arch(), decoded.data(), ptr)),
              bytes_of(expected));

    std::vector<std::pair<std::uint64_t, TypeId>> want;
    for (const RefLeaf& leaf : leaves) {
      if (!leaf.is_pointer) continue;
      const std::uint64_t v =
          read_scaled_uint(image.data() + leaf.offset, arch().pointer_size, arch().endian);
      if (v != 0) want.emplace_back(v, leaf.pointee);
    }
    std::vector<std::pair<std::uint64_t, TypeId>> got;
    ASSERT_TRUE(walk_pointer_fields(layouts_, arch(), type, image.data(),
                                    [&](std::uint64_t v, TypeId pointee) -> Status {
                                      got.emplace_back(v, pointee);
                                      return Status::ok();
                                    })
                    .is_ok());
    EXPECT_EQ(got, want);
  }

  TypeRegistry registry_;
  LayoutEngine layouts_{registry_};
  ValueCodec codec_{registry_, layouts_};
  TypeId node_ = kInvalidTypeId;
  TypeId inner_ = kInvalidTypeId;
  TypeId outer_ = kInvalidTypeId;
};

TEST_P(LayoutPlanTest, PlanSizeDoesNotDependOnArrayCount) {
  const std::size_t element = layouts_.layout_of(arch(), outer_).value()->leaves.size();
  for (std::uint32_t n : {2u, 17u, 1000u}) {
    auto layout = layouts_.layout_of(arch(), registry_.array_of(outer_, n));
    ASSERT_TRUE(layout.is_ok());
    EXPECT_EQ(layout.value()->leaves.size(), element + 1) << n;
  }
}

TEST_P(LayoutPlanTest, NestedStructsMatchReference) {
  check_against_reference(inner_, 1);
  check_against_reference(outer_, 2);
}

TEST_P(LayoutPlanTest, ArraysOfStructsAndPointersMatchReference) {
  check_against_reference(registry_.array_of(inner_, 5), 3);
  check_against_reference(registry_.array_of(registry_.pointer_to(node_), 9), 4);
  check_against_reference(registry_.array_of(registry_.array_of(node_, 2), 3), 5);
}

TEST_P(LayoutPlanTest, HeapArrayOfThousandMatchesReference) {
  check_against_reference(registry_.array_of(outer_, 1000), 6);
}

TEST_P(LayoutPlanTest, ScalarAndPointerTypesMatchReference) {
  check_against_reference(TypeRegistry::scalar_id(ScalarType::kI16), 7);
  check_against_reference(registry_.pointer_to(outer_), 8);
}

TEST_P(LayoutPlanTest, UnknownAndIncompleteTypesKeepTheirErrorCodes) {
  const TypeId incomplete = registry_.declare_struct("PLater").value();
  const TypeId unknown = 9999;
  std::uint8_t image[64] = {};
  RawPointerCodec ptr;
  const auto no_op = [](std::uint64_t, TypeId) { return Status::ok(); };
  for (const auto& [type, code] :
       {std::pair{incomplete, StatusCode::kFailedPrecondition},
        std::pair{registry_.array_of(incomplete, 4), StatusCode::kFailedPrecondition},
        std::pair{unknown, StatusCode::kNotFound}}) {
    ByteBuffer wire;
    xdr::Encoder enc(wire);
    EXPECT_EQ(codec_.encode(arch(), type, image, enc, ptr).code(), code);
    xdr::Decoder dec(wire);
    EXPECT_EQ(codec_.decode(arch(), type, image, dec, ptr).code(), code);
    EXPECT_EQ(codec_.wire_size(type).status().code(), code);
    EXPECT_EQ(walk_pointer_fields(layouts_, arch(), type, image, no_op).code(), code);
  }
}

INSTANTIATE_TEST_SUITE_P(Arches, LayoutPlanTest,
                         ::testing::Values(&host_arch(), &sparc32_arch()),
                         [](const auto& info) {
                           return info.param == &host_arch() ? "host" : "sparc32";
                         });

}  // namespace
}  // namespace srpc
