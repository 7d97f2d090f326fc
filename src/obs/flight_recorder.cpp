#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "net/message.hpp"

namespace srpc {
namespace {

// Minimal JSON string escaping for the short note/name fields.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view to_string(FlightEventKind k) noexcept {
  switch (k) {
    case FlightEventKind::kFrameSend: return "FRAME_SEND";
    case FlightEventKind::kFrameRecv: return "FRAME_RECV";
    case FlightEventKind::kRetransmit: return "RETRANSMIT";
    case FlightEventKind::kFence: return "FENCE";
    case FlightEventKind::kWbConflict: return "WB_CONFLICT";
    case FlightEventKind::kLeaseExpiry: return "LEASE_EXPIRY";
    case FlightEventKind::kDetector: return "DETECTOR";
    case FlightEventKind::kArenaPublishFail: return "ARENA_PUBLISH_FAIL";
    case FlightEventKind::kRecoveryReplay: return "RECOVERY_REPLAY";
    case FlightEventKind::kCrash: return "CRASH";
    case FlightEventKind::kRejoin: return "REJOIN";
    case FlightEventKind::kSloBreach: return "SLO_BREACH";
    case FlightEventKind::kSessionAbort: return "SESSION_ABORT";
    case FlightEventKind::kCheckpoint: return "CHECKPOINT";
  }
  return "UNKNOWN";
}

FlightRecorder::FlightRecorder(SpaceId space, std::string space_name,
                               std::size_t capacity)
    : space_(space), space_name_(std::move(space_name)) {
  ring_.resize(capacity == 0 ? 1 : capacity);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.assign(capacity == 0 ? 1 : capacity, FlightEvent{});
  head_ = 0;
  total_ = 0;
}

void FlightRecorder::set_dump_sink(DumpSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void FlightRecorder::set_dump_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dump_dir_ = std::move(dir);
}

void FlightRecorder::record(const FlightEvent& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  ++total_;
}

void FlightRecorder::frame(FlightEventKind kind, std::uint64_t ts_ns,
                           std::uint8_t msg_type, SpaceId peer,
                           SessionId session, std::uint64_t seq,
                           std::int64_t arg) {
  FlightEvent e;
  e.ts_ns = ts_ns;
  e.kind = kind;
  e.msg_type = msg_type;
  e.peer = peer;
  e.session = session;
  e.seq = seq;
  e.arg = arg;
  record(e);
}

void FlightRecorder::event(FlightEventKind kind, std::uint64_t ts_ns,
                           SpaceId peer, std::string_view note,
                           std::int64_t arg, SessionId session) {
  FlightEvent e;
  e.ts_ns = ts_ns;
  e.kind = kind;
  e.peer = peer;
  e.arg = arg;
  e.session = session;
  const std::size_t n = std::min(note.size(), sizeof(e.note) - 1);
  if (n > 0) std::memcpy(e.note, note.data(), n);  // empty: data() may be null
  e.note[n] = '\0';
  record(e);
}

std::string FlightRecorder::render_locked(std::string_view reason,
                                          std::uint64_t now_ns) const {
  std::string out;
  out.reserve(256 + 160 * std::min<std::uint64_t>(total_, ring_.size()));
  out += "{\n";
  out += "  \"space\": " + std::to_string(space_) + ",\n";
  out += "  \"name\": \"" + json_escape(space_name_) + "\",\n";
  out += "  \"reason\": \"" + json_escape(reason) + "\",\n";
  out += "  \"dumped_at_ns\": " + std::to_string(now_ns) + ",\n";
  out += "  \"events_total\": " + std::to_string(total_) + ",\n";
  const std::uint64_t kept = std::min<std::uint64_t>(total_, ring_.size());
  out += "  \"events_dropped\": " + std::to_string(total_ - kept) + ",\n";
  out += "  \"events\": [\n";
  // Oldest first: when the ring has wrapped, head_ is also the oldest slot.
  const std::size_t start = (total_ >= ring_.size()) ? head_ : 0;
  for (std::uint64_t i = 0; i < kept; ++i) {
    const FlightEvent& e = ring_[(start + i) % ring_.size()];
    out += "    {\"ts_ns\": " + std::to_string(e.ts_ns);
    out += ", \"kind\": \"";
    out += to_string(e.kind);
    out += "\"";
    if (e.msg_type != 0) {
      out += ", \"msg\": \"";
      out += to_string(static_cast<MessageType>(e.msg_type));
      out += "\"";
    }
    if (e.peer != kInvalidSpaceId)
      out += ", \"peer\": " + std::to_string(e.peer);
    if (e.session != kNoSession)
      out += ", \"session\": " + std::to_string(e.session);
    if (e.seq != 0) out += ", \"seq\": " + std::to_string(e.seq);
    if (e.arg != 0) out += ", \"arg\": " + std::to_string(e.arg);
    if (e.note[0] != '\0')
      out += ", \"note\": \"" + json_escape(e.note) + "\"";
    out += "}";
    if (i + 1 < kept) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string FlightRecorder::dump(std::string_view reason,
                                 std::uint64_t now_ns) {
  std::string json;
  std::string path;
  DumpSink sink;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    json = render_locked(reason, now_ns);
    ++dumps_;
    last_dump_ = json;
    std::string dir = dump_dir_;
    if (dir.empty()) {
      if (const char* env = std::getenv("SRPC_FLIGHT_DIR")) dir = env;
    }
    if (!dir.empty()) {
      path = dir + "/FLIGHT_" + std::to_string(space_) + "_" +
             std::string(reason) + "_" + std::to_string(dumps_) + ".json";
      std::ofstream f(path);
      if (f) {
        f << json;
        last_dump_path_ = path;
      } else {
        path.clear();
      }
    }
    sink = sink_;
  }
  // Sink runs outside the lock: World's archive takes its own mutex and
  // must be free to query the recorder again.
  if (sink) sink(space_, reason, json);
  return json;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEvent> out;
  const std::uint64_t kept = std::min<std::uint64_t>(total_, ring_.size());
  out.reserve(kept);
  const std::size_t start = (total_ >= ring_.size()) ? head_ : 0;
  for (std::uint64_t i = 0; i < kept; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t FlightRecorder::dump_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::string FlightRecorder::last_dump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_dump_;
}

std::string FlightRecorder::last_dump_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_dump_path_;
}

}  // namespace srpc
