// Support machinery for delta-encoded modified sets (PROTOCOL.md
// "MODIFIED_DELTA").
//
// touches_pointer_field() answers "does this delta write a pointer field?".
// Raw byte-range deltas ship local images verbatim, and a swizzled local
// pointer is meaningless in any other space — so a delta whose dirty
// ranges touch pointer bytes must fall back to the graph payload encoder,
// which unswizzles pointers properly.
//
// ShipState is the per-object epoch/fingerprint record behind the
// "already shipped to this hop" skip: each space fingerprints an object's
// effective delta over its *own* image and remembers, per peer, the
// fingerprint that peer last observed (either because we shipped it or
// because the peer sent it to us). Fingerprints never cross the wire.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/byte_range.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "types/arch.hpp"
#include "types/layout.hpp"

namespace srpc {

// True when a dirty range of an object of `type` (object-relative, merged)
// overlaps one of its pointer fields in `arch`'s layout.
Result<bool> touches_pointer_field(const LayoutEngine& layouts, const ArchModel& arch,
                                   TypeId type, std::span<const ByteRange> dirty);

// Per-object, session-scoped shipping record (see Runtime).
struct ShipState {
  std::uint64_t epoch = 0;        // session epoch when content last changed
  std::uint64_t fingerprint = 0;  // of the current effective delta; 0 = unset
  // Union of every range shipped anywhere this session. A byte that was
  // shipped and later reverted to its baseline value no longer diffs, but
  // receivers hold the old value — keeping it in the effective set (and in
  // the fingerprint) makes the revert travel too.
  std::vector<ByteRange> ever_shipped;  // merged
  // Fingerprint of the content each peer last observed from/with us.
  std::unordered_map<SpaceId, std::uint64_t> peer_fingerprint;
};

}  // namespace srpc
