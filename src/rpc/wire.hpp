// Byte-level message framing, used by the real-socket transport and by
// anything that needs to persist or checksum messages. The simulated
// network skips framing (it moves Message objects) but charges the same
// modeled sizes, so both transports price identically.
//
// Frame layout (all integers XDR big-endian):
//   magic   u32  'SRPC'
//   type    u32
//   from    u32
//   to      u32
//   session u64
//   seq     u64
//   len     u32  payload byte count
//   [trace ext, only when the type word has kFrameTraceFlag set:
//    trace_id u64 | span_id u64 | parent_span_id u64 | hop u32]
//   [incarnation ext, only when the type word has kFrameIncarnationFlag
//    set: incarnation u32 | to_incarnation u32]
//   payload len bytes
#pragma once

#include <cstdint>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/byte_range.hpp"
#include "common/status.hpp"
#include "net/message.hpp"
#include "swizzle/long_pointer.hpp"

namespace srpc {

inline constexpr std::uint32_t kFrameMagic = 0x53525043;  // "SRPC"
inline constexpr std::size_t kFrameHeaderSize = 36;

// High bit of the frame's type word: a 28-byte trace-context extension
// (obs/trace_context.hpp) follows the fixed header. Senders set it on every
// message sent while a span is open.
inline constexpr std::uint32_t kFrameTraceFlag = 0x80000000U;

// Second-highest bit of the type word: the frame's payload section is a
// 20-byte shm-lane descriptor {arena_id u32 | ticket u64 | offset u32 |
// len u32} instead of the payload bytes (PROTOCOL.md "Zero-copy payload
// lane"). The descriptor redeems a pin stashed in the sender's ShmArena;
// senders set the flag only toward peers advertising kCapShmPayload.
inline constexpr std::uint32_t kFrameShmFlag = 0x40000000U;

// Third-highest bit of the type word: an 8-byte incarnation extension
// {incarnation u32 | to_incarnation u32} follows the fixed header (after
// the trace extension when both are present). Only recovery worlds stamp
// frames; zero stamps are never framed.
inline constexpr std::uint32_t kFrameIncarnationFlag = 0x20000000U;

// --- MODIFIED_DELTA: delta-encoded modified sets (PROTOCOL.md) -------------
//
// The modified-set section of CALL/RETURN/WB_PREPARE payloads comes in two
// formats, distinguished by the first word:
//
//   legacy  ngroups u32 | ngroups x graph payload          (full images)
//   delta   magic u32 ('MDLT') | flags u32
//           | nfull u32  | nfull x graph payload           (full images)
//           | ndelta u32 | ndelta x modified-delta entry   (byte ranges)
//
// A modified-delta entry names one object and the byte ranges of its local
// image modified since the receiver last saw it:
//
//   pointer  16 B   home identity (space u32 | address u64 | type u32)
//   epoch    u64    sender's session epoch when these bytes last changed
//   nranges  u32
//   nranges x { offset u32 | len u32 | bytes (len, zero-padded to 4) }
//
// Receivers always understand both formats (the magic cannot collide with a
// plausible group count); senders only emit the delta format to peers that
// advertise kCapModifiedDelta — negotiated out of band by the World, which
// grants the bit only when every space shares one architecture, since range
// offsets are positions in the sender's native layout.

inline constexpr std::uint32_t kModifiedDeltaMagic = 0x4D444C54;  // "MDLT"

// Capability bits (World::peer_caps). Only properties that differ between
// spaces of one World get a bit: both below are retracted world-wide as
// soon as one space has a foreign architecture model. Everything else a
// World configures for all its spaces alike (two-phase commit, trace
// context, multi-session manifests, incarnation stamps), so each runtime
// reads it off its own configuration.
//
// Peer accepts delta-format modified sets (see MODIFIED_DELTA above).
inline constexpr std::uint32_t kCapModifiedDelta = 1U << 0;
// Peer shares this host's process memory and understands shm-lane payload
// descriptors (kFrameShmFlag frames / Message::view pass-through). Granted
// by the World only while every space shares one architecture model — the
// published bytes are the sender's native encoding of the payload, and the
// whole point is that the receiver reads them in place.
inline constexpr std::uint32_t kCapShmPayload = 1U << 4;

struct ModifiedDelta {
  LongPointer id;
  std::uint64_t epoch = 0;
  std::vector<ByteRange> ranges;      // sorted, non-overlapping
  std::vector<std::uint8_t> bytes;    // range payloads, concatenated in order
};

// Appends one modified-delta entry; `image` supplies the range bytes.
void encode_modified_delta(xdr::Encoder& enc, const LongPointer& id,
                           std::uint64_t epoch, std::span<const ByteRange> ranges,
                           const std::uint8_t* image);

// Wire byte count encode_modified_delta() will append for `ranges`.
[[nodiscard]] std::uint64_t modified_delta_wire_size(
    std::span<const ByteRange> ranges) noexcept;

// Decodes one modified-delta entry from the cursor. Validates that ranges
// are sorted, non-overlapping, and non-empty; bounds against the target
// object's size are the applier's job (it knows the type).
Result<ModifiedDelta> decode_modified_delta(xdr::Decoder& dec);

// Appends the framed message to `out`.
void encode_frame(const Message& msg, ByteBuffer& out);

// Decodes one frame from `in`'s cursor. PROTOCOL_ERROR on bad magic or
// unknown type; OUT_OF_RANGE if the buffer holds less than one frame.
Result<Message> decode_frame(ByteBuffer& in);

// Blocking full-buffer I/O on a file descriptor (retries EINTR and short
// transfers). UNAVAILABLE on EOF / peer close.
Status write_all(int fd, const std::uint8_t* data, std::size_t len);
Status read_all(int fd, std::uint8_t* data, std::size_t len);

// Reads exactly one frame from `fd`.
Result<Message> read_frame(int fd);

// Writes one frame to `fd`.
Status write_frame(int fd, const Message& msg);

}  // namespace srpc
