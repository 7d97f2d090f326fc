// TraceContext — the causal identity a message carries across address
// spaces so nested RPC / callback / fetch chains form one span tree.
//
// {trace_id, span_id, parent_span_id, hop} travel as a 28-byte wire
// extension behind the frame header (rpc/wire.cpp), attached to every
// message sent while a span is open. A zero trace_id means "no context
// attached"; retransmits of a request reuse
// the original context verbatim, which is what keeps duplicate serves
// siblings in one tree instead of forking a second one.
#pragma once

#include <cstdint>

namespace srpc {

struct TraceContext {
  std::uint64_t trace_id = 0;        // one per causal tree (0 = absent)
  std::uint64_t span_id = 0;         // sender's span covering this message
  std::uint64_t parent_span_id = 0;  // sender's parent span (0 = root)
  std::uint32_t hop = 0;             // control transfers since the root

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

// Wire footprint of the extension: 3 x u64 + u32, XDR big-endian.
inline constexpr std::size_t kTraceContextWireSize = 28;

}  // namespace srpc
