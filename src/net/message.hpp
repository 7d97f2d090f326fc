// Runtime messages exchanged between address spaces.
//
// One message vocabulary serves the whole system: conventional RPC
// (call/return), the smart-RPC fetch protocol (paper §3.2), the coherency
// write-back and invalidation traffic (§3.4), batched remote memory
// management (§3.5), and the fully-lazy baseline's per-dereference
// callbacks (§2).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/byte_buffer.hpp"
#include "common/ids.hpp"
#include "net/shm_arena.hpp"
#include "obs/trace_context.hpp"

namespace srpc {

enum class MessageType : std::uint8_t {
  kCall = 1,       // invoke a remote procedure (args + piggybacked payloads)
  kReturn,         // procedure result (+ piggybacked payloads)
  kFetch,          // request the data allocated to a faulted page
  kFetchReply,     // graph payload filling the page (+ eager closure)
  kAllocBatch,     // batched extended_malloc/extended_free requests
  kAllocReply,     // home-assigned addresses for the batch
  kInvalidate,     // session-end multicast: drop all cached data
  kInvalidateAck,
  kDeref,          // fully-lazy baseline: dereference one long pointer
  kDerefReply,
  kError,          // remote failure terminating the pending operation
  kShutdown,       // world teardown: stop the space's worker loop
  kWbPrepare,      // two-phase write-back: stage modified set in a shadow buffer
  kWbPrepareAck,
  kWbCommit,       // apply the staged shadow buffer for {session, epoch}
  kWbCommitAck,
  kWbAbort,        // discard the staged shadow buffer
  kWbAbortAck,
  kPing,           // failure-detector probe
  kPong,
  kRejoin,         // restarted space announces {incarnation, decision log}
  kRejoinAck,
};

std::string_view to_string(MessageType t) noexcept;

struct Message {
  MessageType type = MessageType::kShutdown;
  SpaceId from = kInvalidSpaceId;
  SpaceId to = kInvalidSpaceId;
  SessionId session = kNoSession;
  std::uint64_t seq = 0;  // matches replies to requests
  TraceContext trace;     // causal identity (trace_id == 0: none attached)
  // Incarnation fencing (PROTOCOL.md "Incarnations, fencing & rejoin"):
  // `incarnation` is the sender's current incarnation, `to_incarnation` the
  // sender's belief about the destination's. Zero means "not stamped"
  // (legacy peer or recovery disabled) and is never fenced. Receivers drop
  // any message whose stamps are below their own knowledge — a frame from a
  // crashed predecessor, or one addressed to it, must never be acted upon.
  std::uint32_t incarnation = 0;
  std::uint32_t to_incarnation = 0;
  // Simulation-only arrival timestamp (virtual ns) stamped by SimNetwork;
  // the receiver advances its clock to it on dequeue. Never framed on the
  // wire and not part of wire_size().
  std::uint64_t arrive_ns = 0;
  ByteBuffer payload;
  // Zero-copy lane (PROTOCOL.md "Zero-copy payload lane"): when valid, the
  // payload bytes live in a shared arena region and only this descriptor
  // crosses the wire; `payload` is empty in flight and the receiver binds
  // it back over the region with bind_view_payload(). The view's hold is
  // the pin — a dropped message releases the region by plain destruction.
  PayloadView view;

  [[nodiscard]] bool shm_backed() const noexcept { return view.valid(); }

  // Receiver edge: rebind `payload` as a borrowed buffer over the arena
  // region so every handler decodes exactly as if the bytes had been
  // framed. The buffer shares the pin, so moving the payload out of the
  // message (e.g. into a cache fill) keeps the region alive.
  void bind_view_payload() {
    if (!shm_backed()) return;
    payload = ByteBuffer::borrow(view.bytes(), view.hold);
  }

  [[nodiscard]] std::size_t wire_size() const noexcept;
};

// Fixed per-message wire overhead (header fields as framed by rpc/wire.cpp).
inline constexpr std::size_t kMessageHeaderWireSize = 32;
// Shm-lane descriptor: arena_id u32 | region u64 | offset u32 | len u32.
inline constexpr std::size_t kShmDescriptorWireSize = 20;
// Incarnation extension: incarnation u32 | to_incarnation u32.
inline constexpr std::size_t kIncarnationWireSize = 8;

inline std::size_t Message::wire_size() const noexcept {
  // The trace-context extension is charged only when attached, so runs
  // with tracing off price (and simulate) identically to pre-trace builds.
  // Shm-lane messages are charged header + descriptor only: the payload
  // bytes never cross the wire, which is the whole point of the lane.
  // Incarnation stamps ride the same only-when-attached rule, so worlds
  // without recovery price identically to pre-recovery builds.
  const std::size_t body =
      shm_backed() ? kShmDescriptorWireSize : payload.size();
  return kMessageHeaderWireSize + (trace.valid() ? kTraceContextWireSize : 0) +
         ((incarnation != 0 || to_incarnation != 0) ? kIncarnationWireSize
                                                    : 0) +
         body;
}

}  // namespace srpc
