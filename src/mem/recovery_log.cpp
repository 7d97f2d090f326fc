#include "mem/recovery_log.hpp"

#include <cstdio>
#include <cstring>

#include "common/byte_buffer.hpp"
#include "common/logging.hpp"
#include "mem/managed_heap.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

namespace {

const char* kind_name(RecoveryLog::Kind k) {
  switch (k) {
    case RecoveryLog::Kind::kAlloc:
      return "ALLOC";
    case RecoveryLog::Kind::kFree:
      return "FREE";
    case RecoveryLog::Kind::kPrepare:
      return "PREPARE";
    case RecoveryLog::Kind::kCommit:
      return "COMMIT";
    case RecoveryLog::Kind::kAbort:
      return "ABORT";
    case RecoveryLog::Kind::kSettle:
      return "SETTLE";
    case RecoveryLog::Kind::kDecision:
      return "DECISION";
    case RecoveryLog::Kind::kCheckpoint:
      return "CHECKPOINT";
  }
  return "?";
}

}  // namespace

void RecoveryLog::append(Record&& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_logged_ += r.bytes.size();
  if (!backing_path_.empty()) {
    if (std::FILE* f = std::fopen(backing_path_.c_str(), "a")) {
      std::fprintf(f, "%s session=%llu epoch=%llu peer=%u addr=%llx %zuB\n",
                   kind_name(r.kind),
                   static_cast<unsigned long long>(r.session),
                   static_cast<unsigned long long>(r.epoch), r.peer,
                   static_cast<unsigned long long>(r.addr), r.bytes.size());
      std::fclose(f);
    }
  }
  records_.push_back(std::move(r));
}

void RecoveryLog::note_alloc(std::uint64_t addr, TypeId full_type,
                             std::uint32_t count, std::uint64_t size,
                             SpaceId owner_space, SessionId owner_session) {
  Record r;
  r.kind = Kind::kAlloc;
  r.addr = addr;
  r.type = full_type;
  r.count = count;
  r.size = size;
  r.peer = owner_space;
  r.session = owner_session;
  append(std::move(r));
}

void RecoveryLog::note_free(std::uint64_t addr) {
  Record r;
  r.kind = Kind::kFree;
  r.addr = addr;
  append(std::move(r));
}

void RecoveryLog::note_prepare(SessionId session, std::uint64_t epoch,
                               SpaceId from, const std::uint8_t* staged,
                               std::size_t len) {
  Record r;
  r.kind = Kind::kPrepare;
  r.session = session;
  r.epoch = epoch;
  r.peer = from;
  r.bytes.assign(staged, staged + len);
  append(std::move(r));
}

void RecoveryLog::note_commit(SessionId session, std::uint64_t epoch) {
  Record r;
  r.kind = Kind::kCommit;
  r.session = session;
  r.epoch = epoch;
  append(std::move(r));
}

void RecoveryLog::note_abort(SessionId session, std::uint64_t epoch) {
  Record r;
  r.kind = Kind::kAbort;
  r.session = session;
  r.epoch = epoch;
  append(std::move(r));
}

void RecoveryLog::note_settle(SessionId session, bool aborted) {
  Record r;
  r.kind = Kind::kSettle;
  r.session = session;
  r.aborted = aborted;
  append(std::move(r));
}

void RecoveryLog::note_decision(SessionId session, std::uint64_t epoch,
                                bool committed) {
  Record r;
  r.kind = Kind::kDecision;
  r.session = session;
  r.epoch = epoch;
  r.committed = committed;
  append(std::move(r));
}

// Checkpoint image layout (all XDR):
//   n u32 | n x { addr u64 | type u32 | count u32 | owner_space u32
//                | owner_session u64 | size u64 | bytes (size, padded) }
void RecoveryLog::checkpoint(const ManagedHeap& heap) {
  ByteBuffer image;
  xdr::Encoder enc(image);
  std::uint32_t n = 0;
  heap.for_each([&](const ManagedHeap::Record&) { ++n; });
  enc.put_u32(n);
  heap.for_each([&](const ManagedHeap::Record& rec) {
    enc.put_u64(reinterpret_cast<std::uint64_t>(rec.base));
    enc.put_u32(rec.type);
    enc.put_u32(rec.count);
    enc.put_u32(rec.owner_space);
    enc.put_u64(rec.owner_session);
    enc.put_u64(rec.size);
    enc.put_opaque_fixed({rec.base, static_cast<std::size_t>(rec.size)});
  });
  Record r;
  r.kind = Kind::kCheckpoint;
  r.count = n;
  r.bytes.assign(image.data(), image.data() + image.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++checkpoints_;
  }
  append(std::move(r));
}

Status RecoveryLog::restore_checkpoint(const Record& image, ManagedHeap& heap) {
  if (image.kind != Kind::kCheckpoint) {
    return invalid_argument("restore_checkpoint: not a checkpoint record");
  }
  ByteBuffer buf;
  buf.append({image.bytes.data(), image.bytes.size()});
  xdr::Decoder dec(buf);
  auto n = dec.get_u32();
  if (!n) return n.status();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto addr = dec.get_u64();
    if (!addr) return addr.status();
    auto type = dec.get_u32();
    if (!type) return type.status();
    auto count = dec.get_u32();
    if (!count) return count.status();
    auto owner_space = dec.get_u32();
    if (!owner_space) return owner_space.status();
    auto owner_session = dec.get_u64();
    if (!owner_session) return owner_session.status();
    auto size = dec.get_u64();
    if (!size) return size.status();
    auto bytes = dec.get_opaque_fixed(static_cast<std::uint32_t>(size.value()));
    if (!bytes) return bytes.status();
    // The predecessor's storage lives on in the space's heap arena, so the
    // successor re-registers the exact range — peers' long pointers stay
    // valid — and rolls the bytes back to the checkpointed image.
    auto* base = reinterpret_cast<std::uint8_t*>(addr.value());
    SRPC_RETURN_IF_ERROR(heap.restore(base, type.value(), count.value(),
                                      size.value(), owner_space.value(),
                                      owner_session.value()));
    std::memcpy(base, bytes.value().data(), bytes.value().size());
  }
  return Status::ok();
}

std::vector<RecoveryLog::Record> RecoveryLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<RecoveryDecision> RecoveryLog::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RecoveryDecision> out;
  for (const Record& r : records_) {
    if (r.kind == Kind::kDecision) {
      out.push_back(RecoveryDecision{r.session, r.epoch, r.committed});
    }
  }
  return out;
}

std::size_t RecoveryLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t RecoveryLog::checkpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoints_;
}

std::uint64_t RecoveryLog::bytes_logged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_logged_;
}

void RecoveryLog::set_backing_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  backing_path_ = std::move(path);
}

}  // namespace srpc
