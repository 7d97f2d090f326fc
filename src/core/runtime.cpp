#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

#include "common/logging.hpp"
#include "core/graph_payload.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

// ---------------------------------------------------------------------------
// Wire payload layouts (all sections XDR):
//   CALL        proc string | modified-set | closures | marshalled args
//   RETURN      modified-set | closures | marshalled results
//   FETCH       budget u64 | wide u32 | base u64 | count u32
//               | count x (delta u32 | addr u64)     (addresses only: the
//               home resolves types from its own heap; compactness matters
//               because every fault re-requests a whole page of entries)
//   FETCH_REPLY count u32 | count x graph payload
//   ALLOC_BATCH nalloc u32 | nalloc x {provisional u64, type u32}
//               | nfree u32 | nfree x {addr u64}
//   ALLOC_REPLY n u32 | n x {provisional u64, real u64}
//   WB_PREPARE  epoch u64 | [manifest] | modified-set
//               (acked empty; staged, not applied; the manifest
//               "n u32 | n x addr u64" rides only in multi-session worlds)
//   WB_COMMIT   epoch u64               (acked empty; applies the stage)
//   WB_ABORT    epoch u64               (acked empty; discards the stage)
//   INVALIDATE  empty or aborted u32    (acked empty; empty = normal end)
//   PING        empty                   (PONG, empty)
//   DEREF       long pointer
//   DEREF_REPLY canonical value bytes
//   ERROR       code u32 | message string
// where closures are "count u32 | count x graph payload" sections and
// modified-set is either that same legacy layout or the MODIFIED_DELTA
// format (rpc/wire.hpp), auto-detected by its leading magic.
// ---------------------------------------------------------------------------

Runtime::Runtime(SpaceId self, std::string name, const ArchModel& arch,
                 TypeRegistry& registry, const LayoutEngine& layouts,
                 HeapArena& heap_arena, HostTypeMap& host_types,
                 Transport& transport, SimNetwork* sim,
                 CacheOptions cache_options,
                 std::function<std::vector<SpaceId>()> directory,
                 TimeoutConfig timeouts,
                 std::function<std::uint32_t(SpaceId)> peer_caps)
    : self_(self),
      name_(std::move(name)),
      arch_(arch),
      registry_(registry),
      layouts_(layouts),
      codec_{registry, layouts},
      host_types_(host_types),
      sim_(sim),
      vclock_(sim != nullptr ? &sim->clock_of(self) : nullptr),
      directory_(std::move(directory)),
      peer_caps_(std::move(peer_caps)),
      endpoint_(self, transport, mailbox_),
      heap_(registry, layouts, arch, self, heap_arena),
      cache_(registry, layouts, arch, self, cache_options, *this),
      allocator_(cache_),
      packer_(codec_, arch, *this),
      timeouts_(timeouts),
      telemetry_(self, name_),
      cache_options_(cache_options) {
  full_dispatcher_ = [this](Message msg) { return dispatch(std::move(msg)); };
  if (sim_ != nullptr) {
    telemetry_.set_clock([this] { return vnow_ns(); });
    // The simulated wire stamps arrival timestamps instead of charging the
    // whole message cost at send (that is what lets pipelined requests
    // overlap their latency); the receive edge lands here, when the worker
    // dequeues the message.
    endpoint_.set_delivery_hook([this](const Message& msg) {
      if (msg.arrive_ns != 0) sim_->deliver(*vclock_, msg.arrive_ns);
    });
  }
  endpoint_.set_telemetry(&telemetry_);
  cache_.set_telemetry(&telemetry_);
}

Status Runtime::init() { return cache_.init(); }

// ---------------------------------------------------------------------------
// Zero-copy shm payload lane (PROTOCOL.md "Zero-copy payload lane")
// ---------------------------------------------------------------------------

void Runtime::set_shm_arena(ShmArena* arena) {
  shm_arena_ = arena;
  if (arena == nullptr) {
    endpoint_.set_payload_lane({});
    return;
  }
  endpoint_.set_payload_lane([this](Message& msg) { elevate_payload(msg); });
}

void Runtime::elevate_payload(Message& msg) {
  // Retransmits re-enter here with an owned copy of the original bytes and
  // get a fresh region; a message that somehow already carries a view
  // passes through untouched. Empty payloads have nothing to elevate.
  if (msg.shm_backed() || msg.payload.size() == 0) return;
  const std::uint64_t n = msg.payload.size();
  const bool eligible = shm_payload_enabled_ && !msg.payload.borrowed() &&
                        peer_caps_ && (peer_caps_(msg.to) & kCapShmPayload) != 0;
  if (eligible) {
    std::vector<std::uint8_t> bytes = msg.payload.take_bytes();
    auto published = shm_arena_->publish(std::move(bytes));
    if (published) {
      msg.view = std::move(published).value();
      ++stats_.shm_payloads_published;
      telemetry_.count("rpc.bytes_zero_copy", {}, n);
      return;
    }
    // Arena full: `bytes` is untouched (publish checks capacity before
    // adopting), put it back and take the byte lane.
    msg.payload = ByteBuffer(std::move(bytes));
    ++stats_.shm_publish_fallbacks;
    telemetry_.flight().event(FlightEventKind::kArenaPublishFail, vnow_ns(),
                              msg.to, to_string(msg.type),
                              static_cast<std::int64_t>(n), msg.session);
  }
  telemetry_.count("rpc.bytes_copied", {}, n);
}

// ---------------------------------------------------------------------------
// Session-state resolution (multi-session mode)
// ---------------------------------------------------------------------------

SessionState& Runtime::state_for(SessionId id) {
  if (!multi_session_ || id == kNoSession) return ambient_state_;
  SessionState& st = sessions_.open(id);
  if (st.id == kNoSession) st.id = id;
  return st;
}

const SessionState& Runtime::cur_state() const {
  const SessionId id = current_session();
  if (!multi_session_ || id == kNoSession) return ambient_state_;
  const SessionState* st = sessions_.find(id);
  return st != nullptr ? *st : ambient_state_;
}

CacheManager& Runtime::cache_for(SessionId id) {
  if (!multi_session_ || id == kNoSession) return cache_;
  SessionState& st = state_for(id);
  if (!st.cache) {
    st.cache = std::make_unique<CacheManager>(registry_, layouts_, arch_, self_,
                                              cache_options_, *this);
    st.cache->set_telemetry(&telemetry_);
    st.cache->set_session(id);
    // Arena reservation failing is an OOM-class condition; fail loudly
    // rather than silently sharing the default cache across sessions.
    st.cache->init().check();
    st.allocator = std::make_unique<RemoteAllocator>(*st.cache);
  }
  return *st.cache;
}

RemoteAllocator& Runtime::allocator_for(SessionId id) {
  if (!multi_session_ || id == kNoSession) return allocator_;
  (void)cache_for(id);  // materialises the allocator alongside the cache
  return *state_for(id).allocator;
}

CacheManager& Runtime::cache() { return cache_for(current_session()); }

const CacheManager& Runtime::cache() const {
  const SessionId id = current_session();
  if (!multi_session_ || id == kNoSession) return cache_;
  const SessionState* st = sessions_.find(id);
  return (st != nullptr && st->cache) ? *st->cache : cache_;
}

CacheManager* Runtime::cache_owning(const void* p) {
  if (cache_.contains(p)) return &cache_;
  CacheManager* owner = nullptr;
  sessions_.for_each([&](SessionState& st) {
    if (owner == nullptr && st.cache && st.cache->contains(p)) {
      owner = st.cache.get();
    }
  });
  return owner;
}

const CacheManager* Runtime::cache_owning(const void* p) const {
  if (cache_.contains(p)) return &cache_;
  const CacheManager* owner = nullptr;
  sessions_.for_each([&](const SessionState& st) {
    if (owner == nullptr && st.cache && st.cache->contains(p)) {
      owner = st.cache.get();
    }
  });
  return owner;
}

RemoteAllocator* Runtime::allocator_of(const CacheManager* cache) {
  if (cache == &cache_) return &allocator_;
  RemoteAllocator* owner = nullptr;
  sessions_.for_each([&](SessionState& st) {
    if (owner == nullptr && st.cache.get() == cache) {
      owner = st.allocator.get();
    }
  });
  return owner;
}

// ---------------------------------------------------------------------------
// Pointer translation (heap + data allocation table)
// ---------------------------------------------------------------------------

Result<LongPointer> Runtime::unswizzle(std::uint64_t ordinary, TypeId pointee) {
  const void* addr = reinterpret_cast<const void*>(ordinary);
  if (const CacheManager* owner = cache_owning(addr)) {
    return owner->unswizzle(addr);
  }
  const ManagedHeap::Record* record = heap_.find(addr);
  if (record == nullptr) {
    return invalid_argument(
        "pointer 0x" + std::to_string(ordinary) +
        " references memory outside the system-controlled heap (paper §3.2: "
        "all shared data must live in the managed heap)");
  }
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(record->base);
  if (ordinary == base) {
    return LongPointer{self_, ordinary, record->type};
  }
  // Interior pointer: nameable only for array elements.
  const TypeDescriptor& desc = registry_.get(record->type);
  if (desc.kind() != TypeKind::kArray) {
    (void)pointee;
    return unimplemented("interior pointer into non-array heap datum");
  }
  const std::uint64_t elem_size = layouts_.size_of(arch_, desc.element());
  if ((ordinary - base) % elem_size != 0) {
    return invalid_argument("interior pointer not on an element boundary");
  }
  return LongPointer{self_, ordinary, desc.element()};
}

Result<std::uint64_t> Runtime::swizzle(const LongPointer& pointer, TypeId pointee) {
  if (pointer.space == self_) {
    // Home data: the long pointer's address *is* the local ordinary pointer.
    if (heap_.find(reinterpret_cast<const void*>(pointer.address)) == nullptr) {
      return invalid_argument("incoming pointer to unknown home datum: " +
                              pointer.to_string());
    }
    return pointer.address;
  }
  return cache().swizzle(pointer, pointee);
}

Result<std::uint64_t> Runtime::swizzle_home(const LongPointer& pointer, TypeId pointee) {
  if (pointer.space != self_) {
    return internal_error("swizzle_home with foreign pointer " + pointer.to_string());
  }
  return swizzle(pointer, pointee);
}

Result<LocalDataView::DatumView> Runtime::view_local(std::uint64_t local_addr) const {
  const void* addr = reinterpret_cast<const void*>(local_addr);
  if (const CacheManager* owner = cache_owning(addr)) {
    const AllocationEntry* entry = owner->lookup_local(addr);
    if (entry == nullptr) {
      return not_found("cache address with no allocation entry");
    }
    DatumView view;
    view.id = entry->pointer;
    view.image = owner->is_resident(entry->local) ? entry->local : nullptr;
    return view;
  }
  const ManagedHeap::Record* record = heap_.find(addr);
  if (record == nullptr) {
    return not_found("address outside heap and cache");
  }
  DatumView view;
  view.id = LongPointer{self_, reinterpret_cast<std::uint64_t>(record->base),
                        record->type};
  view.image = record->base;
  return view;
}

// ---------------------------------------------------------------------------
// Coherency sections (paper §3.4)
// ---------------------------------------------------------------------------

namespace {

// Receives one graph payload of *modified* objects: applied in place at
// home, overwritten/overlaid in the cache elsewhere (the sender was the
// single active thread, so incoming values always win).
class IncorporateSink final : public GraphSink {
 public:
  explicit IncorporateSink(Runtime& rt) : rt_(rt) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (locals_.size() <= index) locals_.resize(index + 1, 0);
    if (id.space == rt_.id()) {
      const ManagedHeap::Record* record = rt_.heap().find_base(id.address);
      if (record == nullptr) {
        // Write-back to data freed at home (free-while-cached): tolerated,
        // dropped. See DESIGN.md §6.
        SRPC_WARN << "dropping modified datum for unknown home address "
                  << id.to_string();
        locals_[index] = id.address;
        return static_cast<void*>(nullptr);
      }
      locals_[index] = id.address;
      // The value arriving for our home datum was produced elsewhere: keep
      // it in the travelling set so other spaces' stale caches hear of it.
      rt_.note_home_update(id);
      return static_cast<void*>(record->base);
    }
    auto dest = rt_.cache().prepare_incoming_dirty(id);
    if (!dest) return dest.status();
    const AllocationEntry* entry = rt_.cache().lookup(id);
    if (entry == nullptr) {
      return internal_error("incoming dirty datum vanished: " + id.to_string());
    }
    locals_[index] = reinterpret_cast<std::uint64_t>(entry->local);
    return dest;
  }

  Result<std::uint64_t> address_of(std::uint32_t index) override {
    if (index >= locals_.size() || locals_[index] == 0) {
      return internal_error("address_of before prepare");
    }
    return locals_[index];
  }

  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId pointee) override {
    return rt_.swizzle(target, pointee);
  }

 private:
  Runtime& rt_;
  std::vector<std::uint64_t> locals_;
};

}  // namespace

void Runtime::note_home_update(const LongPointer& id) {
  SessionState& st = cur_state();
  if (!st.updates.insert(id).second) return;
  // First remote update this session: the current heap bytes are the
  // baseline every later delta is expressed against. The caller has not
  // applied the incoming value yet.
  const ManagedHeap::Record* record = heap_.find_base(id.address);
  if (record != nullptr) {
    st.home_twins[id].assign(record->base, record->base + record->size);
  }
}

CacheManager::ModifiedDatum Runtime::home_modified_datum(
    const LongPointer& id, const ManagedHeap::Record& record) const {
  CacheManager::ModifiedDatum d;
  d.id = LongPointer{self_, id.address, record.type};
  d.image = record.base;
  d.size = static_cast<std::uint32_t>(record.size);
  const auto& home_twins = cur_state().home_twins;
  const auto twin = home_twins.find(id);
  if (twin != home_twins.end() && twin->second.size() == record.size) {
    d.has_baseline = true;
    diff_ranges(record.base, twin->second.data(),
                static_cast<std::uint32_t>(record.size), 0,
                /*merge_gap=*/8, d.dirty);
  }
  return d;
}

void Runtime::clear_ship_state() { cur_state().clear_ship(); }

void Runtime::commit_shipped(SpaceId dest,
                             const std::vector<ShippedRecord>& shipped) {
  auto& ship = cur_state().ship;
  for (const ShippedRecord& s : shipped) {
    ship[s.id].peer_fingerprint[dest] = s.fingerprint;
  }
}

Status Runtime::attach_modified_set(
    ByteBuffer& out, SpaceId dest, bool write_back, std::size_t* encoded,
    std::vector<ShippedRecord>* shipped,
    std::vector<CacheManager::ModifiedDatum>* homed) {
  SessionState& sst = cur_state();
  ++sst.ship_epoch;
  const bool dest_takes_deltas =
      modified_deltas_enabled_ && peer_caps_ &&
      (peer_caps_(dest) & kCapModifiedDelta) != 0;
  // In a recovery world a write-back doubles as the home's redo record: its
  // WAL replay restores the pre-session heap, so the staged set must carry
  // EVERY modified object homed there — including content the home already
  // observed on an earlier hop. Re-applying identical bytes is idempotent;
  // skipping them would leave the stage incomplete. Recovery is a world
  // option, so our own log stands for the home's.
  const bool self_contained_redo = write_back && recovery_ != nullptr;

  if (!dest_takes_deltas) {
    // Non-capable peer: the original page-granular protocol. Every object
    // on a dirty page travels as a full image — no baseline diffing, no
    // cross-hop suppression — so both sides agree on what a modified set
    // means without the MODIFIED_DELTA capability.
    std::map<SpaceId, std::vector<GraphObjectRef>> groups;
    std::size_t emitted = 0;
    for (const auto& m : cache().collect_modified()) {
      if (write_back && m.id.space != dest) continue;
      if (is_provisional_address(m.id.address)) {
        return internal_error("provisional identity in modified set: " +
                              m.id.to_string() + " (alloc batch not flushed?)");
      }
      groups[m.id.space].push_back(GraphObjectRef{m.id.address, m.id.type, m.image});
      ++emitted;
    }
    if (!write_back) {
      for (auto it = sst.updates.begin(); it != sst.updates.end();) {
        const ManagedHeap::Record* record = heap_.find_base(it->address);
        if (record == nullptr) {
          it = sst.updates.erase(it);  // freed since: drop from the set
          continue;
        }
        groups[self_].push_back(GraphObjectRef{it->address, record->type, record->base});
        ++emitted;
        ++it;
      }
    }
    xdr::Encoder enc(out);
    const std::size_t before = out.size();
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
    stats_.modified_bytes_shipped += out.size() - before;
    if (encoded != nullptr) *encoded = emitted;
    return Status::ok();
  }

  // Gather the candidate set: the cache's modified data, plus (except in
  // write-back mode, where every datum is already expressed against its
  // home) our own home data that remote activity modified this session.
  std::vector<CacheManager::ModifiedDatum> candidates;
  if (homed != nullptr) {
    candidates = std::move(*homed);
  } else {
    for (auto& d : cache().collect_modified_deltas()) {
      if (write_back && d.id.space != dest) continue;
      candidates.push_back(std::move(d));
    }
  }
  if (!write_back) {
    for (auto it = sst.updates.begin(); it != sst.updates.end();) {
      const ManagedHeap::Record* record = heap_.find_base(it->address);
      if (record == nullptr) {
        it = sst.updates.erase(it);  // freed since: drop from the set
        continue;
      }
      candidates.push_back(home_modified_datum(*it, *record));
      ++it;
    }
  }

  struct DeltaItem {
    LongPointer id;
    std::uint64_t epoch = 0;
    std::vector<ByteRange> ranges;
    const std::uint8_t* image = nullptr;
  };
  std::map<SpaceId, std::vector<GraphObjectRef>> groups;
  std::vector<DeltaItem> deltas;
  std::size_t emitted = 0;

  for (auto& d : candidates) {
    if (is_provisional_address(d.id.address)) {
      return internal_error("provisional identity in modified set: " +
                            d.id.to_string() + " (alloc batch not flushed?)");
    }
    ShipState& st = sst.ship[d.id];
    // Effective ranges: what differs from the baseline now, plus whatever
    // was already shipped (receivers hold those bytes; a revert to the
    // baseline value must still travel).
    std::vector<ByteRange> eff;
    if (d.has_baseline) {
      eff = d.dirty;
      eff.insert(eff.end(), st.ever_shipped.begin(), st.ever_shipped.end());
      merge_ranges(eff);
      if (eff.empty()) continue;  // dirtied page, identical bytes: nothing new
    } else {
      eff.assign(1, ByteRange{0, d.size});
    }
    const std::uint64_t fp = fingerprint_ranges(d.image, eff);
    if (fp != st.fingerprint) {
      st.fingerprint = fp;
      st.epoch = sst.ship_epoch;
    }
    if (const auto peer = st.peer_fingerprint.find(dest);
        !self_contained_redo && peer != st.peer_fingerprint.end() &&
        peer->second == fp) {
      ++stats_.deltas_skipped_by_epoch;  // dest already holds this content
      continue;
    }

    bool as_delta = dest_takes_deltas && d.has_baseline;
    if (as_delta) {
      // Raw ranges ship local images verbatim; swizzled local pointers are
      // meaningless elsewhere, so pointer-touching deltas take the graph
      // encoder instead.
      auto writes_pointer = touches_pointer_field(layouts_, arch_, d.id.type, eff);
      if (!writes_pointer) return writes_pointer.status();
      if (writes_pointer.value()) {
        as_delta = false;
      } else if (d.complete) {
        // Full-image fallback: past this point the delta costs more wire
        // than simply re-sending the object.
        auto full_cost = graph_object_wire_size(codec_, d.id.type);
        if (full_cost && modified_delta_wire_size(eff) >= full_cost.value()) {
          as_delta = false;
        }
      }
    }
    if (!as_delta && !d.complete) {
      // A partially received overlay cannot be composed into a full image.
      // With world-uniform capability negotiation this only happens if
      // deltas were toggled off mid-session; ship the delta regardless —
      // every receiver in this codebase auto-detects the format.
      SRPC_WARN << name_ << ": partial overlay for " << d.id.to_string()
                << " forced into delta format";
      as_delta = true;
    }

    if (as_delta) {
      deltas.push_back(DeltaItem{d.id, st.epoch, eff, d.image});
    } else {
      groups[d.id.space].push_back(GraphObjectRef{d.id.address, d.id.type, d.image});
    }
    ++emitted;
    if (shipped != nullptr) shipped->push_back(ShippedRecord{d.id, fp});
    if (d.has_baseline) {
      st.ever_shipped.insert(st.ever_shipped.end(), eff.begin(), eff.end());
      merge_ranges(st.ever_shipped);
    } else {
      st.ever_shipped.assign(1, ByteRange{0, d.size});
    }
  }

  xdr::Encoder enc(out);
  const std::size_t before = out.size();
  if (deltas.empty()) {
    // Every surviving candidate fell back to a full image (small objects,
    // pointer-touching writes): the legacy layout says it in fewer bytes.
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
  } else {
    std::uint64_t delta_wire = 0;
    for (const DeltaItem& item : deltas) {
      delta_wire += modified_delta_wire_size(item.ranges);
    }
    enc.reserve(16 + delta_wire);
    enc.put_u32(kModifiedDeltaMagic);
    enc.put_u32(0);  // flags, reserved
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
    enc.put_u32(static_cast<std::uint32_t>(deltas.size()));
    for (const DeltaItem& item : deltas) {
      encode_modified_delta(enc, item.id, item.epoch, item.ranges, item.image);
    }
    stats_.delta_bytes_shipped += delta_wire;
  }
  stats_.modified_bytes_shipped += out.size() - before;
  if (encoded != nullptr) *encoded = emitted;
  return Status::ok();
}

void Runtime::observe_incoming(const LongPointer& id, SpaceId from,
                               std::uint64_t epoch) {
  ShipState& st = cur_state().ship[id];
  if (epoch > st.epoch) st.epoch = epoch;
  // Fingerprint our own post-application image the same way
  // attach_modified_set() will, and credit `from` with it: the sender knows
  // exactly what it sent, so echoing it back is pure waste.
  CacheManager::ModifiedDatum d;
  if (id.space == self_) {
    const ManagedHeap::Record* record = heap_.find_base(id.address);
    if (record == nullptr) return;  // dropped (freed at home)
    d = home_modified_datum(id, *record);
  } else {
    auto datum = cache().modified_datum(id);
    if (!datum) return;  // e.g. skipped object that never landed
    d = std::move(datum).value();
  }
  std::vector<ByteRange> eff;
  if (d.has_baseline) {
    eff = d.dirty;
    eff.insert(eff.end(), st.ever_shipped.begin(), st.ever_shipped.end());
    merge_ranges(eff);
  } else {
    eff.assign(1, ByteRange{0, d.size});
  }
  const std::uint64_t fp = eff.empty() ? 0 : fingerprint_ranges(d.image, eff);
  st.fingerprint = fp;
  st.peer_fingerprint[from] = fp;
}

Status Runtime::apply_delta_entry(const ModifiedDelta& delta) {
  if (delta.id.space == self_) {
    const ManagedHeap::Record* record = heap_.find_base(delta.id.address);
    if (record == nullptr) {
      // Delta for data freed at home (free-while-cached): tolerated,
      // dropped — same policy as the graph-payload path.
      SRPC_WARN << name_ << ": dropping delta for unknown home address "
                << delta.id.to_string();
      return Status::ok();
    }
    if (!delta.ranges.empty() && delta.ranges.back().end() > record->size) {
      return protocol_error("delta range past the end of home datum " +
                            delta.id.to_string());
    }
    note_home_update(delta.id);  // snapshots the pre-application baseline
    const std::uint8_t* src = delta.bytes.data();
    for (const ByteRange& r : delta.ranges) {
      std::memcpy(record->base + r.offset, src, r.len);
      src += r.len;
    }
    return Status::ok();
  }
  return cache().apply_incoming_delta(delta.id, delta.ranges, delta.bytes.data());
}

Status Runtime::apply_modified_set(ByteBuffer& in, SpaceId from) {
  xdr::Decoder dec(in);
  auto first = dec.get_u32();
  if (!first) return first.status();

  std::vector<std::pair<LongPointer, std::uint64_t>> received;  // id, epoch
  auto apply_payloads = [&](std::uint32_t count) -> Status {
    for (std::uint32_t i = 0; i < count; ++i) {
      IncorporateSink sink(*this);
      std::vector<LongPointer> ids;
      SRPC_RETURN_IF_ERROR(decode_graph_payload(codec_, arch_, in, sink, &ids));
      for (const LongPointer& id : ids) received.emplace_back(id, 0);
    }
    return Status::ok();
  };

  if (first.value() == kModifiedDeltaMagic) {
    auto flags = dec.get_u32();
    if (!flags) return flags.status();
    auto nfull = dec.get_u32();
    if (!nfull) return nfull.status();
    SRPC_RETURN_IF_ERROR(apply_payloads(nfull.value()));
    auto ndelta = dec.get_u32();
    if (!ndelta) return ndelta.status();
    for (std::uint32_t i = 0; i < ndelta.value(); ++i) {
      auto delta = decode_modified_delta(dec);
      if (!delta) return delta.status();
      SRPC_RETURN_IF_ERROR(apply_delta_entry(delta.value()));
      received.emplace_back(delta.value().id, delta.value().epoch);
    }
  } else {
    SRPC_RETURN_IF_ERROR(apply_payloads(first.value()));
  }

  for (const auto& [id, epoch] : received) {
    observe_incoming(id, from, epoch);
  }
  return Status::ok();
}

Status Runtime::attach_closures(ByteBuffer& out, std::span<const std::uint64_t> roots) {
  xdr::Encoder enc(out);
  if (roots.empty()) {
    enc.put_u32(0);
    return Status::ok();
  }
  auto packed = packer_.pack(roots, cache().closure_bytes(), /*require_roots=*/false);
  if (!packed) return packed.status();
  note_shipped_reads(current_session(), packed.value());
  enc.put_u32(static_cast<std::uint32_t>(packed.value().groups.size()));
  for (const auto& [space, refs] : packed.value().groups) {
    SRPC_RETURN_IF_ERROR(
        encode_graph_payload(codec_, arch_, space, refs, *this, out));
  }
  return Status::ok();
}

void Runtime::note_shipped_reads(SessionId session, const PackedClosure& packed) {
  if (!multi_session_ || session == kNoSession) return;
  auto own = packed.groups.find(self_);
  if (own == packed.groups.end()) return;
  // Reads are never refused — conflicts surface at commit, not here.
  for (const GraphObjectRef& ref : own->second) arbiter_.note_read(session, ref.addr);
}

Status Runtime::apply_closures(ByteBuffer& in) {
  xdr::Decoder dec(in);
  auto count = dec.get_u32();
  if (!count) return count.status();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    SRPC_RETURN_IF_ERROR(cache().incorporate_clean_payload(in));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Error plumbing
// ---------------------------------------------------------------------------

Status Runtime::send_error(SpaceId to, SessionId session, std::uint64_t seq,
                           const Status& error) {
  Message msg;
  msg.type = MessageType::kError;
  msg.to = to;
  msg.session = session;
  msg.seq = seq;
  xdr::Encoder enc(msg.payload);
  enc.put_u32(static_cast<std::uint32_t>(error.code()));
  enc.put_string(error.message());
  return endpoint_.send(std::move(msg));
}

Status Runtime::decode_error(Message& msg) {
  xdr::Decoder dec(msg.payload);
  auto code = dec.get_u32();
  auto text = code ? dec.get_string() : Result<std::string>(code.status());
  if (!code || !text) {
    return protocol_error("malformed error message");
  }
  return Status(static_cast<StatusCode>(code.value()),
                "remote(" + std::to_string(msg.from) + "): " + text.value());
}

// ---------------------------------------------------------------------------
// Duplicate absorption and session tombstones
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kServedRequestWindow = 1024;  // per-peer dedup memory
constexpr std::size_t kDeadSessionWindow = 64;      // remembered tombstones
}  // namespace

bool Runtime::note_duplicate_request(SpaceId from, std::uint64_t seq) {
  ServedRequests& served = served_requests_[from];
  if (served.seen.contains(seq)) return true;
  served.seen.insert(seq);
  served.order.push_back(seq);
  if (served.order.size() > kServedRequestWindow) {
    served.seen.erase(served.order.front());
    served.order.pop_front();
  }
  return false;
}

void Runtime::tombstone_session(SessionId session) {
  if (session == kNoSession || dead_session_set_.contains(session)) return;
  dead_session_set_.insert(session);
  dead_session_order_.push_back(session);
  if (dead_session_order_.size() > kDeadSessionWindow) {
    dead_session_set_.erase(dead_session_order_.front());
    dead_session_order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Remote memory management (paper §3.5)
// ---------------------------------------------------------------------------

Result<void*> Runtime::extended_malloc(SpaceId home, TypeId type, std::uint32_t count) {
  if (count == 0) return invalid_argument("extended_malloc: zero count");
  if (home == self_) {
    return heap_.allocate(type, count);
  }
  const TypeId full = count > 1 ? registry_.array_of(type, count) : type;
  auto layout = layouts_.layout_of(arch_, full);
  if (!layout) return layout.status();
  return allocator_for(current_session())
      .allocate(home, full, layout.value()->size, layout.value()->align);
}

Status Runtime::extended_free(void* p) {
  if (p == nullptr) return invalid_argument("extended_free(nullptr)");
  if (CacheManager* owner = cache_owning(p)) {
    const AllocationEntry* entry = owner->lookup_local(p);
    if (entry == nullptr || entry->local != p) {
      return invalid_argument("extended_free: not a datum base address");
    }
    RemoteAllocator* alloc = allocator_of(owner);
    if (alloc == nullptr) {
      return internal_error("cache without a paired allocator");
    }
    return alloc->release(entry->pointer);
  }
  return heap_.free(p);
}

namespace {

// FETCH frame body: budget | wide flag | base | count | count x address
// (u32 deltas off the base unless any pointer needs the wide u64 form).
void encode_fetch_frame(ByteBuffer& out, std::span<const LongPointer> pointers,
                        std::uint64_t closure_budget) {
  xdr::Encoder enc(out);
  enc.put_u64(closure_budget);
  std::uint64_t base = pointers.empty() ? 0 : pointers[0].address;
  bool wide = false;
  for (const LongPointer& p : pointers) base = std::min(base, p.address);
  for (const LongPointer& p : pointers) {
    if (p.address - base > 0xFFFFFFFFULL) {
      wide = true;
      break;
    }
  }
  enc.put_u32(wide ? 1 : 0);
  enc.put_u64(base);
  enc.put_u32(static_cast<std::uint32_t>(pointers.size()));
  for (const LongPointer& p : pointers) {
    if (wide) {
      enc.put_u64(p.address);
    } else {
      enc.put_u32(static_cast<std::uint32_t>(p.address - base));
    }
  }
}

// fan_out() width that issues every frame before settling any.
constexpr std::size_t kFullWidth = std::numeric_limits<std::size_t>::max();

// Fans `n` request frames out `width` (>= 1) at a time. `issue(i)` ships
// frame i and returns its seq (0: nothing was sent); `settle(i, seq)`
// collects the reply. Each window is settled before the next one starts,
// and no window starts once a frame has failed: width 1 stops addressing
// peers at the first failure, while kFullWidth has every frame in flight
// before the first reply is collected (the cost is the slowest round trip,
// not the sum). Every issued frame is settled, so no completion slot
// leaks. Returns the first failure.
template <typename Issue, typename Settle>
Status fan_out(std::size_t n, std::size_t width, Issue&& issue,
               Settle&& settle) {
  Status failure = Status::ok();
  std::vector<std::pair<std::size_t, std::uint64_t>> window;
  for (std::size_t begin = 0; begin < n && failure.is_ok();) {
    const std::size_t end = begin + std::min(width, n - begin);
    window.clear();
    for (std::size_t i = begin; i < end; ++i) {
      Result<std::uint64_t> seq = issue(i);
      if (!seq) {
        if (failure.is_ok()) failure = seq.status();
      } else if (seq.value() != 0) {
        window.emplace_back(i, seq.value());
      }
    }
    for (const auto& [i, seq] : window) {
      Status settled = settle(i, seq);
      if (failure.is_ok()) failure = std::move(settled);
    }
    begin = end;
  }
  return failure;
}

}  // namespace

Status Runtime::prefetch(const void* p, std::uint64_t closure_budget) {
  if (p == nullptr) return invalid_argument("prefetch(nullptr)");
  CacheManager* owner = cache_owning(p);
  if (owner == nullptr) return Status::ok();  // home data: already here
  return owner->prefetch(p, closure_budget);
}

Status Runtime::prefetch_many(std::span<const void* const> pointers,
                              std::uint64_t closure_budget) {
  poll_failures();
  // Route each address to the cache that owns it (session overlays keep
  // separate arenas); home data needs no prefetch.
  std::vector<std::pair<CacheManager*, std::vector<const void*>>> per_cache;
  for (const void* p : pointers) {
    if (p == nullptr) continue;
    CacheManager* owner = cache_owning(p);
    if (owner == nullptr) continue;
    auto it = std::find_if(per_cache.begin(), per_cache.end(),
                           [&](const auto& e) { return e.first == owner; });
    if (it == per_cache.end()) {
      per_cache.push_back({owner, {}});
      it = std::prev(per_cache.end());
    }
    it->second.push_back(p);
  }

  Status failure = Status::ok();
  for (auto& [owner, addrs] : per_cache) {
    const SessionId sid =
        owner->session() != kNoSession ? owner->session() : current_session();
    Status filled = owner->prefetch_many(
        std::span<const void* const>(addrs.data(), addrs.size()),
        [&, owner_cache = owner](std::vector<CacheManager::PrefetchGroup>& groups)
            -> Result<std::vector<ByteBuffer>> {
          return parallel_fetch(*owner_cache, groups, closure_budget, sid);
        });
    if (failure.is_ok() && !filled.is_ok()) failure = filled;
  }
  return failure;
}

Result<std::vector<ByteBuffer>> Runtime::parallel_fetch(
    CacheManager& owner, std::vector<CacheManager::PrefetchGroup>& groups,
    std::uint64_t closure_budget, SessionId session) {
  std::vector<ByteBuffer> replies(groups.size());
  // Every FETCH is in flight before the first reply is collected: the homes
  // serve them concurrently. Restricted await (nullptr dispatcher) like the
  // fault path: the owning cache is mid-fill and must not be re-entered.
  Status failure = fan_out(
      groups.size(), kFullWidth,
      [&](std::size_t g) {
        Message msg;
        msg.type = MessageType::kFetch;
        msg.to = groups[g].home;
        msg.session = session;
        msg.seq = endpoint_.next_seq();
        encode_fetch_frame(msg.payload, groups[g].pointers, closure_budget);
        return issue_guarded(std::move(msg), MessageType::kFetchReply,
                             /*idempotent=*/true);
      },
      [&](std::size_t g, std::uint64_t seq) -> Status {
        auto reply = collect_guarded(seq, nullptr);
        if (!reply) return reply.status();
        if (reply.value().type == MessageType::kError) {
          return decode_error(reply.value());
        }
        replies[g] = std::move(reply.value().payload);
        owner.renew_lease(groups[g].home, vnow_ns());
        if (telemetry_.tracing()) {
          telemetry_.annotate("lease renewed: source " +
                              std::to_string(groups[g].home));
        }
        return Status::ok();
      });
  if (!failure.is_ok()) return failure;
  return replies;
}

Status Runtime::flush_alloc_batches() {
  const SessionId session = current_session();
  RemoteAllocator* allocator = &allocator_;
  if (multi_session_ && session != kNoSession) {
    // Only flush a session that actually allocated — resolving through
    // allocator_for() here would materialise a cache for every session
    // this space merely serves.
    SessionState* st = sessions_.find(session);
    if (st == nullptr || !st->allocator) return Status::ok();
    allocator = st->allocator.get();
  }
  for (const SpaceId home : allocator->pending_homes()) {
    RemoteAllocator::Batch batch = allocator->take_batch(home);
    Message msg;
    msg.type = MessageType::kAllocBatch;
    msg.to = home;
    msg.session = session;
    msg.seq = endpoint_.next_seq();
    xdr::Encoder enc(msg.payload);
    enc.put_u32(static_cast<std::uint32_t>(batch.allocs.size()));
    for (const auto& a : batch.allocs) {
      enc.put_u64(a.provisional);
      enc.put_u32(a.type);
    }
    enc.put_u32(static_cast<std::uint32_t>(batch.frees.size()));
    for (const std::uint64_t addr : batch.frees) {
      enc.put_u64(addr);
    }
    // Allocation is not idempotent (a replayed batch would double-allocate
    // at the home), so a single attempt races the full deadline.
    auto reply = guarded_roundtrip(std::move(msg), MessageType::kAllocReply,
                                   nullptr, /*idempotent=*/false);
    if (!reply) return reply.status();
    if (reply.value().type == MessageType::kError) {
      return decode_error(reply.value());
    }
    xdr::Decoder dec(reply.value().payload);
    auto n = dec.get_u32();
    if (!n) return n.status();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> assigned;
    assigned.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto prov = dec.get_u64();
      if (!prov) return prov.status();
      auto real = dec.get_u64();
      if (!real) return real.status();
      assigned.emplace_back(prov.value(), real.value());
    }
    SRPC_RETURN_IF_ERROR(allocator->apply_assignments(home, assigned));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Failure containment (detector, probes, leases, orphan reclamation)
// ---------------------------------------------------------------------------

std::uint64_t Runtime::vnow_ns() const noexcept {
  return sim_ != nullptr ? sim_->clock().now() : 0;
}

std::string Runtime::metrics_json() {
  // Fold the legacy struct counters into the registry (assignment, not
  // accumulation: this may be called repeatedly) so one JSON snapshot
  // carries the whole picture.
  MetricsRegistry& m = telemetry_.metrics();
  const auto set = [&m](const char* name, std::uint64_t v) {
    m.counter(name).value = v;
  };
  set("runtime.calls_sent", stats_.calls_sent);
  set("runtime.calls_served", stats_.calls_served);
  set("runtime.fetches_served", stats_.fetches_served);
  set("runtime.derefs_served", stats_.derefs_served);
  set("runtime.alloc_batches_served", stats_.alloc_batches_served);
  set("runtime.stale_replies_absorbed", stats_.stale_replies_absorbed);
  set("runtime.duplicate_requests_absorbed", stats_.duplicate_requests_absorbed);
  set("runtime.dead_session_rejections", stats_.dead_session_rejections);
  set("runtime.sessions_aborted", stats_.sessions_aborted);
  set("runtime.modified_bytes_shipped", stats_.modified_bytes_shipped);
  set("runtime.delta_bytes_shipped", stats_.delta_bytes_shipped);
  set("runtime.deltas_skipped_by_epoch", stats_.deltas_skipped_by_epoch);
  set("runtime.wb_prepares", stats_.wb_prepares);
  set("runtime.wb_commits", stats_.wb_commits);
  set("runtime.wb_aborts", stats_.wb_aborts);
  set("runtime.wb_prepares_served", stats_.wb_prepares_served);
  set("runtime.wb_commits_served", stats_.wb_commits_served);
  set("runtime.wb_aborts_served", stats_.wb_aborts_served);
  set("runtime.probes_sent", stats_.probes_sent);
  set("runtime.peers_died", stats_.peers_died);
  set("runtime.failfast_rejections", stats_.failfast_rejections);
  set("runtime.leases_expired", stats_.leases_expired);
  set("runtime.orphan_bytes_reclaimed", stats_.orphan_bytes_reclaimed);
  set("runtime.session_teardown_failures", stats_.session_teardown_failures);
  set("runtime.sessions_committed", stats_.sessions_committed);
  set("runtime.wb_conflicts", stats_.wb_conflicts);
  set("runtime.shm_payloads_published", stats_.shm_payloads_published);
  set("runtime.shm_publish_fallbacks", stats_.shm_publish_fallbacks);
  // Crash recovery & reincarnation.
  set("recovery.fenced_stale_messages", stats_.fenced_stale_messages);
  set("recovery.rejoins_sent", stats_.rejoins_sent);
  set("recovery.rejoins_served", stats_.rejoins_served);
  set("recovery.replayed_records", stats_.recovery_replays);
  set("recovery.in_doubt_resolved_commit", stats_.in_doubt_resolved_commit);
  set("recovery.in_doubt_resolved_abort", stats_.in_doubt_resolved_abort);
  set("recovery.checkpoints_taken", stats_.checkpoints_taken);
  if (recovery_ != nullptr) {
    set("recovery.log_records", recovery_->records());
    set("recovery.log_bytes", recovery_->bytes_logged());
  }
  // Cache counters summed across the default cache and every live
  // per-session overlay (an overlay's counters leave the sum when its
  // session closes — sample before teardown for per-session numbers).
  CacheStats cs = cache_.stats();
  sessions_.for_each([&](const SessionState& st) {
    if (!st.cache) return;
    const CacheStats& s = st.cache->stats();
    cs.read_faults += s.read_faults;
    cs.write_faults += s.write_faults;
    cs.fills += s.fills;
    cs.fetches += s.fetches;
    cs.objects_filled += s.objects_filled;
    cs.objects_skipped += s.objects_skipped;
    cs.closure_prefetch_hits += s.closure_prefetch_hits;
    cs.closure_prefetch_misses += s.closure_prefetch_misses;
  });
  set("cache.read_faults", cs.read_faults);
  set("cache.write_faults", cs.write_faults);
  set("cache.fills", cs.fills);
  set("cache.fetches", cs.fetches);
  set("cache.objects_filled", cs.objects_filled);
  set("cache.objects_skipped", cs.objects_skipped);
  set("cache.closure_prefetch_hits", cs.closure_prefetch_hits);
  set("cache.closure_prefetch_misses", cs.closure_prefetch_misses);
  set("rpc.retransmits", endpoint_.retransmits());
  // Concurrency layer (multi-session runtime + home-side arbitration).
  set("concurrency.active_sessions", active_sessions());
  set("concurrency.lock_waits", arbiter_.stats().lock_waits);
  set("concurrency.conflicts", arbiter_.stats().conflicts);
  set("concurrency.wounds", arbiter_.stats().wounds);
  set("concurrency.locks_held", arbiter_.lock_count());
  return m.to_json();
}

std::string Runtime::health_json() {
  std::string out = "{";
  out += "\"space\": " + std::to_string(self_);
  out += ", \"name\": \"" + name_ + "\"";
  out += ", \"incarnation\": " + std::to_string(incarnation_);
  // Failure-detector verdicts, one entry per peer it has ever judged.
  out += ", \"detector\": {";
  bool first = true;
  for (const auto& p : detector_.snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::to_string(p.peer) + "\": {\"health\": \"" +
           std::string(to_string(p.health)) +
           "\", \"misses\": " + std::to_string(p.consecutive_misses) +
           ", \"last_contact_ns\": " + std::to_string(p.last_contact_ns) + "}";
  }
  out += "}";
  // Home-side lock arbitration pressure.
  const ArbiterStats& as = arbiter_.stats();
  out += ", \"locks\": {\"held\": " + std::to_string(arbiter_.lock_count());
  out += ", \"waits\": " + std::to_string(as.lock_waits);
  out += ", \"conflicts\": " + std::to_string(as.conflicts);
  out += ", \"wounds\": " + std::to_string(as.wounds) + "}";
  // Server-side dedup window (at-most-once memory) and client-side
  // completion slots (pipelined futures still in flight).
  std::size_t dedup = 0;
  for (const auto& [peer, served] : served_requests_) dedup += served.seen.size();
  out += ", \"dedup_window\": " + std::to_string(dedup);
  out += ", \"completion_slots\": " + std::to_string(endpoint_.inflight());
  out += ", \"retransmits\": " + std::to_string(endpoint_.retransmits());
  out += ", \"sessions\": {\"active\": " + std::to_string(active_sessions());
  out += ", \"in_doubt_stages\": " + std::to_string(shadow_commits_.size()) +
         "}";
  out += ", \"slo\": " + telemetry_.slo().to_json();
  out += ", \"flight\": {\"events\": " +
         std::to_string(telemetry_.flight().total_recorded());
  out += ", \"capacity\": " + std::to_string(telemetry_.flight().capacity());
  out += ", \"dumps\": " + std::to_string(telemetry_.flight().dump_count()) +
         "}";
  out += "}";
  return out;
}

Result<Message> Runtime::guarded_roundtrip(Message msg, MessageType reply_type,
                                           const RpcEndpoint::Dispatcher& serve,
                                           bool idempotent) {
  const SpaceId peer = msg.to;
  const MessageType kind = msg.type;
  const SessionId msg_session = msg.session;
  if (multi_session_ && msg_session != kNoSession && peer != self_) {
    // Remember who this session talked to from here: the session-end
    // invalidation multicasts to exactly this set (and each member forwards
    // to its own), instead of the whole world directory.
    if (SessionState* st = sessions_.find(msg_session)) st->touched.insert(peer);
  }
  if (detector_.is_dead(peer)) {
    ++stats_.failfast_rejections;
    telemetry_.count("rpc.failfast_rejections",
                     std::string("peer=") + std::to_string(peer));
    return space_dead("space " + std::to_string(peer) +
                      " is dead (failure detector)");
  }

  // Every request roundtrip this runtime initiates passes through here, so
  // this one site produces the client half of the span tree and the
  // per-kind latency histograms.
  const std::uint64_t start = telemetry_.now_ns();
  SpanRecorder::Handle span = SpanRecorder::kNoSpan;
  if (telemetry_.tracing()) {
    span = telemetry_.tracer().start_local(
        std::string(to_string(kind)) + " -> " + std::to_string(peer),
        "rpc.client", start);
    // Retransmits reuse this message verbatim (same span), so a duplicated
    // serve lands as a sibling, never a forked tree.
    msg.trace = telemetry_.tracer().context_of(span);
  }

  auto reply = endpoint_.roundtrip(std::move(msg), reply_type, serve,
                                   timeouts_, idempotent);

  const std::uint64_t end = telemetry_.now_ns();
  const std::string kind_label = std::string("kind=") + std::string(to_string(kind));
  telemetry_.hist("rpc.roundtrip_ns", kind_label).record(end - start);
  telemetry_.observe_slo(to_string(kind), end - start);
  telemetry_.count("rpc.requests", kind_label);
  telemetry_.count("rpc.requests", std::string("peer=") + std::to_string(peer));
  if (span != SpanRecorder::kNoSpan) {
    telemetry_.tracer().finish(span, end, reply.is_ok());
  }

  if (reply) {
    detector_.note_contact(peer, vnow_ns());
    if (multi_session_ && msg_session != kNoSession) {
      if (SessionState* st = sessions_.find(msg_session);
          st != nullptr && st->cache) {
        st->cache->touch_lease(peer, vnow_ns());
      }
    } else {
      cache_.touch_lease(peer, vnow_ns());
    }
    return reply;
  }
  telemetry_.count("rpc.failures", kind_label);
  const StatusCode code = reply.status().code();
  if ((code == StatusCode::kDeadlineExceeded ||
       code == StatusCode::kUnavailable) &&
      !probing_) {
    probe_peer(peer);
  }
  return reply;
}

void Runtime::probe_peer(SpaceId peer) {
  probing_ = true;
  ++stats_.probes_sent;
  Message ping;
  ping.type = MessageType::kPing;
  ping.to = peer;
  ping.session = kNoSession;
  ping.seq = endpoint_.next_seq();
  // One short attempt: the surrounding request already burned its deadline,
  // the probe only asks "is anyone there at all".
  TimeoutConfig cfg = timeouts_;
  cfg.request_deadline = cfg.attempt_timeout;
  cfg.max_attempts = 1;
  auto pong = endpoint_.roundtrip(std::move(ping), MessageType::kPong, nullptr,
                                  cfg, /*idempotent=*/true);
  probing_ = false;
  if (pong) {
    // The peer lives; the original failure was loss or slowness, not death.
    detector_.note_contact(peer, vnow_ns());
    return;
  }
  const PeerHealth verdict = detector_.note_miss(peer);
  telemetry_.flight().event(FlightEventKind::kDetector, vnow_ns(), peer,
                            std::string("probe miss -> ") +
                                std::string(to_string(verdict)));
  SRPC_WARN << name_ << ": probe of space " << peer
            << " missed; peer is " << to_string(verdict);
  if (telemetry_.tracing()) {
    telemetry_.annotate("probe miss: space " + std::to_string(peer) + " is " +
                        std::string(to_string(verdict)));
  }
  if (verdict == PeerHealth::kDead) {
    // We may be inside the SIGSEGV fill path: defer the page revocation and
    // heap reclamation to the next safe point.
    pending_dead_cleanup_.push_back(peer);
  }
}

Result<std::uint64_t> Runtime::issue_guarded(
    Message msg, MessageType reply_type, bool idempotent,
    std::shared_ptr<Promise<Message>> promise) {
  const SpaceId peer = msg.to;
  const MessageType kind = msg.type;
  const SessionId msg_session = msg.session;
  const std::uint64_t seq = msg.seq;
  if (multi_session_ && msg_session != kNoSession && peer != self_) {
    if (SessionState* st = sessions_.find(msg_session)) st->touched.insert(peer);
  }
  if (detector_.is_dead(peer)) {
    ++stats_.failfast_rejections;
    telemetry_.count("rpc.failfast_rejections",
                     std::string("peer=") + std::to_string(peer));
    return space_dead("space " + std::to_string(peer) +
                      " is dead (failure detector)");
  }

  const std::uint64_t start = telemetry_.now_ns();
  SpanRecorder::Handle span = SpanRecorder::kNoSpan;
  if (telemetry_.tracing()) {
    // Detached: pipelined client spans are concurrent siblings under the
    // issuing session (the stack top at issue time), and finish whenever
    // their reply lands — pushing them would corrupt the LIFO stack once
    // replies complete out of order.
    span = telemetry_.tracer().start_detached(
        std::string(to_string(kind)) + " -> " + std::to_string(peer),
        "rpc.client", start);
    msg.trace = telemetry_.tracer().context_of(span);
  }
  const std::string kind_label = std::string("kind=") + std::string(to_string(kind));

  RpcEndpoint::IssueOptions opts;
  opts.cfg = timeouts_;
  opts.idempotent = idempotent;
  opts.detached = promise != nullptr;
  // Runs inside whichever pump settles the slot — possibly while another
  // request is being collected, possibly on the SIGSEGV fetch path. Light
  // by contract: telemetry, lease touch, promise fulfilment; probes are
  // deferred to drain_probes().
  opts.on_complete = [this, peer, span, start, kind, kind_label, msg_session,
                      promise](Result<Message>& reply) {
    const std::uint64_t end = telemetry_.now_ns();
    telemetry_.hist("rpc.roundtrip_ns", kind_label).record(end - start);
    telemetry_.observe_slo(to_string(kind), end - start);
    telemetry_.count("rpc.requests", kind_label);
    telemetry_.count("rpc.requests", std::string("peer=") + std::to_string(peer));
    if (span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().finish(span, end, reply.is_ok());
    }
    if (reply.is_ok()) {
      detector_.note_contact(peer, vnow_ns());
      if (multi_session_ && msg_session != kNoSession) {
        if (SessionState* st = sessions_.find(msg_session);
            st != nullptr && st->cache) {
          st->cache->touch_lease(peer, vnow_ns());
        }
      } else {
        cache_.touch_lease(peer, vnow_ns());
      }
    } else {
      telemetry_.count("rpc.failures", kind_label);
      const StatusCode code = reply.status().code();
      if (code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kUnavailable) {
        pending_probe_peers_.push_back(peer);
      }
    }
    if (promise) promise->set_result(std::move(reply));
  };
  if (span != SpanRecorder::kNoSpan) {
    opts.on_retransmit = [this, span, reply_type, seq](std::uint32_t attempt,
                                                       std::uint32_t attempts) {
      telemetry_.tracer().annotate(
          span,
          "retransmit " + std::string(to_string(reply_type)) + " seq=" +
              std::to_string(seq) + " attempt " + std::to_string(attempt) + "/" +
              std::to_string(attempts),
          telemetry_.now_ns());
    };
  }

  auto issued = endpoint_.issue(std::move(msg), reply_type, std::move(opts));
  if (!issued) {
    // The request never left (transport refusal or seq collision): settle
    // the telemetry that on_complete would have produced.
    const std::uint64_t end = telemetry_.now_ns();
    telemetry_.hist("rpc.roundtrip_ns", kind_label).record(end - start);
    telemetry_.count("rpc.requests", kind_label);
    telemetry_.count("rpc.failures", kind_label);
    if (span != SpanRecorder::kNoSpan) telemetry_.tracer().finish(span, end, false);
    return issued.status();
  }
  return issued;
}

Result<Message> Runtime::collect_guarded(std::uint64_t seq,
                                         const RpcEndpoint::Dispatcher& serve) {
  auto reply = endpoint_.collect(seq, serve);
  drain_probes();
  return reply;
}

Status Runtime::pump_guarded(std::chrono::steady_clock::time_point deadline) {
  Status pumped = endpoint_.pump_once(deadline, full_dispatcher_);
  drain_probes();
  return pumped;
}

void Runtime::drain_probes() {
  if (probing_) return;
  while (!pending_probe_peers_.empty()) {
    const SpaceId peer = pending_probe_peers_.back();
    pending_probe_peers_.pop_back();
    if (!detector_.is_dead(peer)) probe_peer(peer);
  }
}

void Runtime::on_peer_dead(SpaceId peer) {
  detector_.mark_dead(peer);
  if (!dead_cleaned_.insert(peer).second) return;  // already contained
  ++stats_.peers_died;
  telemetry_.flight().event(FlightEventKind::kDetector, vnow_ns(), peer,
                            "declared dead");
  std::size_t revoked = 0;
  for_each_cache([&](CacheManager& c) { revoked += c.revoke_source(peer); });
  if (revoked > 0) {
    ++stats_.leases_expired;
    telemetry_.flight().event(FlightEventKind::kLeaseExpiry, vnow_ns(), peer,
                              "revoked on death",
                              static_cast<std::int64_t>(revoked));
  }
  std::uint64_t reclaimed = 0;
  if (incarnation_ == 0) {
    // Locks and version observations of the dead peer's sessions will never
    // resolve through WB_COMMIT/INVALIDATE; drop them here.
    arbiter_.release_space(peer);
    reclaimed = heap_.reclaim_owned_by(peer);
    stats_.orphan_bytes_reclaimed += reclaimed;
    // Shadow commits staged by the dead coordinator will never commit.
    for (auto it = shadow_commits_.begin(); it != shadow_commits_.end();) {
      if (it->second.from == peer) {
        ++stats_.wb_aborts_served;
        it = shadow_commits_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // In a recovery world death is not terminal: the peer's stages stay
  // in doubt and its orphan storage stays tagged until its successor
  // incarnation REJOINs with the decision log (on_peer_rejoin) — dropping
  // them now would turn a logged commit into silent data loss.
  SRPC_ERROR << name_ << ": space " << peer << " declared dead; revoked "
             << revoked << " cached pages, reclaimed " << reclaimed
             << " orphaned bytes";
  if (telemetry_.tracing()) {
    telemetry_.annotate("peer dead: space " + std::to_string(peer) +
                        ", revoked " + std::to_string(revoked) +
                        " pages, reclaimed " + std::to_string(reclaimed) +
                        " bytes");
  }
}

void Runtime::poll_failures() {
  while (!pending_dead_cleanup_.empty()) {
    const SpaceId peer = pending_dead_cleanup_.back();
    pending_dead_cleanup_.pop_back();
    on_peer_dead(peer);
  }
  // Reincarnations learned from passing traffic (a REJOIN we have not
  // processed yet): run the same cleanup the explicit announcement would
  // have, but with no decision log in hand the in-doubt stages are KEPT
  // staged — the announcement may be delayed rather than lost, and
  // presuming abort here while peers that received it roll forward would
  // diverge permanently.
  while (!pending_rejoin_cleanup_.empty()) {
    const auto [peer, incarnation] = pending_rejoin_cleanup_.back();
    pending_rejoin_cleanup_.pop_back();
    on_peer_rejoin(peer, incarnation, {}, /*authoritative=*/false);
  }
  if (lease_ttl_ns_ == 0 || sim_ == nullptr) return;
  const std::uint64_t now = vnow_ns();
  for_each_cache([&](CacheManager& c) {
    for (const SpaceId source : c.lapsed_sources(now, lease_ttl_ns_)) {
      const std::size_t revoked = c.revoke_source(source);
      ++stats_.leases_expired;
      telemetry_.flight().event(FlightEventKind::kLeaseExpiry, now, source,
                                "ttl lapsed",
                                static_cast<std::int64_t>(revoked));
      detector_.mark_suspect(source);
      SRPC_WARN << name_ << ": lease on source space " << source
                << " lapsed; revoked " << revoked << " cached pages";
      if (telemetry_.tracing()) {
        telemetry_.annotate("lease expired: source " + std::to_string(source) +
                            ", revoked " + std::to_string(revoked) + " pages");
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Crash recovery & reincarnation (PROTOCOL.md "Incarnations, fencing &
// rejoin")
// ---------------------------------------------------------------------------

void Runtime::set_recovery(RecoveryLog* log, std::uint32_t incarnation) {
  recovery_ = log;
  incarnation_ = log != nullptr ? incarnation : 0;
  if (recovery_ == nullptr || incarnation_ == 0) {
    endpoint_.set_stamp({});
    endpoint_.set_fence({});
    return;
  }
  // Logged addresses must stay unique for the log's lifetime: a freed block
  // is retired, never handed out again, so a replayed ALLOC can always
  // re-register the exact range.
  heap_.set_retain_freed(true);
  // Partition the session-id space by incarnation: the prior life's ids are
  // tombstoned at every home it touched, so the successor must never mint
  // them again (its first session would be refused as a dead straggler).
  // 2^24 ids per life, 256 lives in the 32-bit counter field —
  // begin_session() refuses loudly (RESOURCE_EXHAUSTED) when either runs
  // out rather than bleeding into a neighbouring partition.
  session_counter_ = (static_cast<std::uint64_t>(incarnation_) - 1) << 24;
  if (incarnation_ > 256) {
    SRPC_ERROR << name_ << ": incarnation " << incarnation_
               << " exceeds the session-id partition space (256 lives); "
               << "begin_session() will refuse until the space is retired";
  }
  endpoint_.set_stamp([this](Message& msg) {
    msg.incarnation = incarnation_;
    const auto it = peer_incarnations_.find(msg.to);
    msg.to_incarnation = it != peer_incarnations_.end() ? it->second : 0;
  });
  endpoint_.set_fence([this](const Message& msg) { return fence_stale(msg); });
}

bool Runtime::fence_stale(const Message& msg) {
  if (incarnation_ == 0) return false;
  // REJOIN (and its ack) is exempt: it is how a higher incarnation makes
  // itself known in the first place.
  if (msg.type == MessageType::kRejoin || msg.type == MessageType::kRejoinAck) {
    return false;
  }
  bool stale = false;
  if (msg.incarnation != 0) {
    const auto known = peer_incarnations_.find(msg.from);
    const std::uint32_t seen = known != peer_incarnations_.end() ? known->second : 0;
    if (msg.incarnation < seen) {
      // The sender's prior life: its session state, leases, and seq space
      // died with it.
      stale = true;
    } else if (msg.incarnation > seen && seen != 0) {
      // Passing traffic from a life newer than the one we last processed a
      // REJOIN for (its announcement was lost or is still in flight). The
      // frame itself is fresh; the prior life's residue here is flushed at
      // the next safe point. on_peer_rejoin() performs the actual bump so
      // a racing explicit REJOIN is not mistaken for a duplicate.
      pending_rejoin_cleanup_.emplace_back(msg.from, msg.incarnation);
    } else if (seen == 0) {
      peer_incarnations_[msg.from] = msg.incarnation;  // first contact
    }
  }
  // A frame addressed at OUR prior incarnation answers a request (or
  // targets session state) of the dead predecessor: toxic either way.
  if (msg.to_incarnation != 0 && msg.to_incarnation < incarnation_) stale = true;
  if (stale) {
    ++stats_.fenced_stale_messages;
    telemetry_.count("recovery.fenced_stale_messages",
                     "peer=" + std::to_string(msg.from));
    FlightEvent fe;
    fe.ts_ns = vnow_ns();
    fe.kind = FlightEventKind::kFence;
    fe.msg_type = static_cast<std::uint8_t>(msg.type);
    fe.peer = msg.from;
    fe.session = msg.session;
    fe.seq = msg.seq;
    fe.arg = static_cast<std::int64_t>(msg.incarnation);
    telemetry_.flight().record(fe);
    // The black box for "who kept talking to a dead life": dump once per
    // {peer, stamped incarnation} so a retransmit storm of stale frames
    // yields one dump, not hundreds.
    const std::uint64_t fence_key =
        (static_cast<std::uint64_t>(msg.from) << 32) | msg.incarnation;
    if (fence_dumped_.insert(fence_key).second) {
      telemetry_.flight().dump("incarnation_fence", vnow_ns());
    }
    SRPC_WARN << name_ << ": fencing stale " << to_string(msg.type)
              << " seq=" << msg.seq << " from space " << msg.from << " (inc "
              << msg.incarnation << " -> " << msg.to_incarnation
              << "; we are inc " << incarnation_ << ")";
  }
  return stale;
}

void Runtime::on_peer_rejoin(SpaceId peer, std::uint32_t incarnation,
                             const std::vector<RecoveryDecision>& decisions,
                             bool authoritative) {
  const auto known = peer_incarnations_.find(peer);
  if (known != peer_incarnations_.end() && known->second >= incarnation) {
    // Duplicate or stale announcement — unless the only processing this
    // incarnation ever got here was the implicit (decision-less) cleanup:
    // its stages were left in doubt, and the delayed real REJOIN carrying
    // the decision log must still resolve them.
    const auto pending = awaiting_rejoin_decisions_.find(peer);
    if (!authoritative || pending == awaiting_rejoin_decisions_.end() ||
        pending->second != incarnation || known->second != incarnation) {
      return;
    }
  }
  peer_incarnations_[peer] = incarnation;
  ++stats_.rejoins_served;
  telemetry_.flight().event(FlightEventKind::kRejoin, vnow_ns(), peer,
                            authoritative ? "rejoin served"
                                          : "implicit cleanup",
                            static_cast<std::int64_t>(incarnation));

  bool stages_in_doubt = false;
  if (authoritative) {
    awaiting_rejoin_decisions_.erase(peer);
    // Resolve the in-doubt stages the prior life coordinated here against
    // the decision log its replay recovered: a logged commit rolls the
    // stage forward exactly as its lost WB_COMMIT would have; anything else
    // (abort decision, or no decision at all — the crash hit before phase
    // one finished) rolls back.
    for (auto it = shadow_commits_.begin(); it != shadow_commits_.end();) {
      if (it->second.from != peer) {
        ++it;
        continue;
      }
      const SessionId session = it->first;
      bool commit = false;
      for (const RecoveryDecision& d : decisions) {
        if (d.session == session && d.epoch == it->second.epoch) {
          commit = d.committed;
          break;
        }
      }
      if (commit) {
        it->second.staged.reset_cursor();
        Status applied = apply_modified_set(it->second.staged, peer);
        if (applied.is_ok()) {
          committed_epochs_[session] = it->second.epoch;
          ++stats_.in_doubt_resolved_commit;
          if (recovery_ != nullptr) {
            recovery_->note_commit(session, it->second.epoch);
          }
          (void)heap_.promote_session(session);
          if (multi_session_) arbiter_.commit(session);
        } else {
          SRPC_ERROR << name_ << ": in-doubt commit of session " << session
                     << " failed: " << applied.to_string();
        }
      } else {
        ++stats_.in_doubt_resolved_abort;
        const std::uint64_t reclaimed = heap_.reclaim_session(session);
        stats_.orphan_bytes_reclaimed += reclaimed;
        if (multi_session_) arbiter_.release(session);
      }
      tombstone_session(session);
      committed_epochs_.erase(session);
      it = shadow_commits_.erase(it);
    }
  } else {
    // Implicit cleanup (fence_stale saw newer-incarnation traffic before
    // any REJOIN): no decision log, so the prior life's stages stay staged
    // and in doubt. Stale-incarnation fencing already refuses every frame
    // that could touch them; the REJOIN that eventually lands — let through
    // the dedup above — resolves them. Until then their sessions' orphan
    // storage must survive too: a commit decision may yet promote it.
    for (const auto& [session, shadow] : shadow_commits_) {
      if (shadow.from == peer) {
        stages_in_doubt = true;
        break;
      }
    }
    if (stages_in_doubt) {
      awaiting_rejoin_decisions_[peer] = incarnation;
      SRPC_WARN << name_ << ": space " << peer << " reincarnated (inc "
                << incarnation << ") before its REJOIN was seen; keeping its "
                << "in-doubt stage(s) until the decision log arrives";
    }
  }

  // The scalar serving state may still be bound to one of the dead life's
  // sessions — its INVALIDATE never arrived. Settle it like any dead
  // session: the cached data and travelling updates die with it, and the
  // binding frees so the successor's sessions can be served (without this
  // the busy-cache refusal would fence the new life out forever). The
  // session-id partition tells the lives apart: the implicit cleanup can
  // run after the successor's own sessions started being served here, and
  // those must survive.
  if (!multi_session_ && cache_session_ != kNoSession &&
      static_cast<SpaceId>(cache_session_ >> 32) == peer &&
      (cache_session_ & 0xFFFFFFFFull) <
          ((static_cast<std::uint64_t>(incarnation) - 1) << 24)) {
    tombstone_session(cache_session_);
    cache_.invalidate_all();
    allocator_.clear();
    ambient_state_.updates.clear();
    ambient_state_.clear_ship();
    cache_session_ = kNoSession;
  }

  // Flush every other trace of the prior life: cached pages it served
  // (the successor replays its heap, but our leases were granted by the
  // dead incarnation), its lock-table entries, its uncommitted orphan
  // storage, the request-dedup window (the new life's seq counter restarts
  // from one), and every in-flight request still addressed at it.
  std::size_t revoked = 0;
  for_each_cache([&](CacheManager& c) { revoked += c.revoke_source(peer); });
  if (revoked > 0) ++stats_.leases_expired;
  arbiter_.release_space(peer);
  // Orphan storage is reclaimed only once the stages are resolved: a
  // pending commit decision may promote some of it (the explicit path ran
  // the resolution loop above, so committed sessions are already
  // promoted and out of reach here).
  std::uint64_t reclaimed = 0;
  if (!stages_in_doubt) {
    reclaimed = heap_.reclaim_owned_by(peer);
    stats_.orphan_bytes_reclaimed += reclaimed;
  }
  served_requests_.erase(peer);
  const std::size_t expired = endpoint_.expire_peer(
      peer, unavailable("space " + std::to_string(peer) +
                        " reincarnated; request of its prior life expired"));
  // Death (if it was ever detected here) is no longer terminal, and the
  // NEXT death of the new incarnation must run containment afresh.
  dead_cleaned_.erase(peer);
  detector_.note_rejoin(peer);
  // A routine restart that left nothing behind here is not a warning.
  const LogLevel rejoin_level = revoked + reclaimed + expired > 0
                                    ? LogLevel::kWarn
                                    : LogLevel::kInfo;
  SRPC_LOG(rejoin_level) << name_ << ": space " << peer
                         << " rejoined as incarnation " << incarnation
                         << "; revoked " << revoked << " pages, reclaimed "
                         << reclaimed << " orphaned bytes, expired " << expired
                         << " in-flight requests";
  if (telemetry_.tracing()) {
    telemetry_.annotate("peer rejoin: space " + std::to_string(peer) +
                        " incarnation " + std::to_string(incarnation));
  }
}

// REJOIN payload: incarnation u32 | n u32 | n x {session u64, epoch u64,
// committed u32}. REJOIN_ACK is empty.
Status Runtime::serve_rejoin(Message msg) {
  xdr::Decoder dec(msg.payload);
  auto inc = dec.get_u32();
  if (!inc) return send_error(msg.from, msg.session, msg.seq, inc.status());
  auto n = dec.get_u32();
  if (!n) return send_error(msg.from, msg.session, msg.seq, n.status());
  std::vector<RecoveryDecision> decisions;
  decisions.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto session = dec.get_u64();
    if (!session) return send_error(msg.from, msg.session, msg.seq, session.status());
    auto epoch = dec.get_u64();
    if (!epoch) return send_error(msg.from, msg.session, msg.seq, epoch.status());
    auto committed = dec.get_u32();
    if (!committed) {
      return send_error(msg.from, msg.session, msg.seq, committed.status());
    }
    decisions.push_back(RecoveryDecision{session.value(), epoch.value(),
                                         committed.value() != 0});
  }
  on_peer_rejoin(msg.from, inc.value(), decisions);
  Message reply;
  reply.type = MessageType::kRejoinAck;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  return endpoint_.send(std::move(reply));
}

Status Runtime::announce_rejoin() {
  if (recovery_ == nullptr || incarnation_ == 0) return Status::ok();
  const std::vector<RecoveryDecision> decisions = recovery_->decisions();
  Status worst = Status::ok();
  for (const SpaceId peer : directory_()) {
    if (peer == self_) continue;
    ++stats_.rejoins_sent;
    Message msg;
    msg.type = MessageType::kRejoin;
    msg.to = peer;
    msg.session = kNoSession;
    msg.seq = endpoint_.next_seq();
    xdr::Encoder enc(msg.payload);
    enc.put_u32(incarnation_);
    enc.put_u32(static_cast<std::uint32_t>(decisions.size()));
    for (const RecoveryDecision& d : decisions) {
      enc.put_u64(d.session);
      enc.put_u64(d.epoch);
      enc.put_u32(d.committed ? 1u : 0u);
    }
    // Idempotent: on_peer_rejoin dedups by {peer, incarnation}, so a
    // retransmitted announcement only re-acks.
    auto ack = guarded_roundtrip(std::move(msg), MessageType::kRejoinAck,
                                 full_dispatcher_, /*idempotent=*/true);
    if (!ack) {
      SRPC_WARN << name_ << ": rejoin announcement to space " << peer
                << " failed: " << ack.status().to_string();
      if (worst.is_ok()) worst = ack.status();
    }
  }
  return worst;
}

Status Runtime::recover_from_log() {
  if (recovery_ == nullptr) return Status::ok();
  const std::vector<RecoveryLog::Record> journal = recovery_->snapshot();
  // The latest checkpoint supersedes everything before it — but the
  // commit-epoch dedup map and session tombstones must survive across the
  // whole history: a retransmitted WB_COMMIT (or straggler of a settled
  // session) re-acks against state the image alone cannot carry.
  std::size_t start = 0;
  const RecoveryLog::Record* checkpoint = nullptr;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i].kind == RecoveryLog::Kind::kCheckpoint) {
      checkpoint = &journal[i];
      start = i + 1;
    }
  }
  if (checkpoint != nullptr) {
    SRPC_RETURN_IF_ERROR(RecoveryLog::restore_checkpoint(*checkpoint, heap_));
  }
  for (std::size_t i = 0; i < start; ++i) {
    const RecoveryLog::Record& r = journal[i];
    if (r.kind == RecoveryLog::Kind::kCommit) {
      std::uint64_t& epoch = committed_epochs_[r.session];
      epoch = std::max(epoch, r.epoch);
    } else if (r.kind == RecoveryLog::Kind::kSettle) {
      committed_epochs_.erase(r.session);
      tombstone_session(r.session);
    }
  }

  std::size_t replayed = 0;
  for (std::size_t i = start; i < journal.size(); ++i) {
    const RecoveryLog::Record& r = journal[i];
    ++replayed;
    switch (r.kind) {
      case RecoveryLog::Kind::kAlloc: {
        auto* base = reinterpret_cast<std::uint8_t*>(r.addr);
        SRPC_RETURN_IF_ERROR(
            heap_.restore(base, r.type, r.count, r.size, r.peer, r.session));
        // A fresh allocation was zeroed; any bytes it gained later arrive
        // through the commit records that follow.
        std::memset(base, 0, r.size);
        break;
      }
      case RecoveryLog::Kind::kFree: {
        Status freed = heap_.free(reinterpret_cast<void*>(r.addr));
        if (!freed.is_ok()) {
          SRPC_WARN << name_ << ": replayed free failed: " << freed.to_string();
        }
        break;
      }
      case RecoveryLog::Kind::kPrepare: {
        // Re-stage, in doubt: the decision records (and peers' REJOIN
        // resolution) settle it.
        ShadowCommit& shadow = shadow_commits_[r.session];
        if (shadow.epoch <= r.epoch) {
          shadow.epoch = r.epoch;
          shadow.from = r.peer;
          shadow.staged = ByteBuffer();
          shadow.staged.append({r.bytes.data(), r.bytes.size()});
        }
        break;
      }
      case RecoveryLog::Kind::kCommit: {
        auto it = shadow_commits_.find(r.session);
        if (it != shadow_commits_.end() && it->second.epoch == r.epoch) {
          it->second.staged.reset_cursor();
          SRPC_RETURN_IF_ERROR(
              apply_modified_set(it->second.staged, it->second.from));
          shadow_commits_.erase(it);
        }
        std::uint64_t& epoch = committed_epochs_[r.session];
        epoch = std::max(epoch, r.epoch);
        break;
      }
      case RecoveryLog::Kind::kAbort: {
        auto it = shadow_commits_.find(r.session);
        if (it != shadow_commits_.end() && it->second.epoch <= r.epoch) {
          shadow_commits_.erase(it);
        }
        break;
      }
      case RecoveryLog::Kind::kSettle: {
        if (r.aborted) {
          stats_.orphan_bytes_reclaimed += heap_.reclaim_session(r.session);
        } else {
          (void)heap_.promote_session(r.session);
        }
        shadow_commits_.erase(r.session);
        committed_epochs_.erase(r.session);
        tombstone_session(r.session);
        break;
      }
      case RecoveryLog::Kind::kDecision:
        break;  // shipped verbatim by announce_rejoin()
      case RecoveryLog::Kind::kCheckpoint:
        break;  // superseded: only the last image is restored
    }
  }
  stats_.recovery_replays += replayed;
  telemetry_.flight().event(FlightEventKind::kRecoveryReplay, vnow_ns(),
                            kInvalidSpaceId,
                            checkpoint != nullptr ? "from checkpoint"
                                                  : "full history",
                            static_cast<std::int64_t>(replayed));
  // Replay re-applied commits through the normal incorporate path, which
  // records them as this (ambient) session's travelling home updates; the
  // recovered sessions are settled history, not live state.
  ambient_state_.updates.clear();
  ambient_state_.clear_ship();
  // Replaying the log is every restart's routine; only stages left in
  // doubt are worth a warning.
  const LogLevel replay_level =
      shadow_commits_.empty() ? LogLevel::kInfo : LogLevel::kWarn;
  SRPC_LOG(replay_level)
      << name_ << ": incarnation " << incarnation_ << " replayed " << replayed
      << " log records ("
      << (checkpoint != nullptr ? "from checkpoint" : "full history") << "); "
      << shadow_commits_.size() << " stage(s) in doubt";
  return Status::ok();
}

void Runtime::checkpoint_now() {
  if (recovery_ == nullptr) return;
  recovery_->checkpoint(heap_);
  // The image captures the heap only; staged prepares live in
  // shadow_commits_ and replay re-stages only kPrepare records appended
  // AFTER the last checkpoint. Re-journal every stage still in doubt so a
  // post-checkpoint kCommit replay finds its bytes — otherwise a prepare
  // logged before the image and committed after it silently no-ops on
  // replay, losing a committed write-back.
  for (const auto& [session, shadow] : shadow_commits_) {
    recovery_->note_prepare(session, shadow.epoch, shadow.from,
                            shadow.staged.data(), shadow.staged.size());
  }
  ++stats_.checkpoints_taken;
  telemetry_.flight().event(FlightEventKind::kCheckpoint, vnow_ns(),
                            kInvalidSpaceId, {},
                            static_cast<std::int64_t>(heap_.live_allocations()));
  settles_since_checkpoint_ = 0;
}

void Runtime::maybe_checkpoint() {
  if (recovery_ == nullptr || checkpoint_interval_ == 0) return;
  if (++settles_since_checkpoint_ < checkpoint_interval_) return;
  checkpoint_now();
}

// ---------------------------------------------------------------------------
// Fetch path (PageFetcher)
// ---------------------------------------------------------------------------

Result<ByteBuffer> Runtime::fetch(SpaceId home, std::span<const LongPointer> pointers,
                                  std::uint64_t closure_budget,
                                  SessionId session) {
  // A session-tagged cache pins its own session; the default cache passes
  // kNoSession and the fetch rides whatever session scope is current.
  const SessionId sid = session != kNoSession ? session : current_session();
  Message msg;
  msg.type = MessageType::kFetch;
  msg.to = home;
  msg.session = sid;
  msg.seq = endpoint_.next_seq();
  encode_fetch_frame(msg.payload, pointers, closure_budget);
  // Restricted await: we may be inside the SIGSEGV handler, and with a
  // single active thread nothing but this reply can legitimately arrive.
  // Fetch is a pure read, so a lost reply is recovered by retransmitting
  // under the same seq; the home serves it again and any late duplicate
  // reply is absorbed by seq matching.
  auto reply = guarded_roundtrip(std::move(msg), MessageType::kFetchReply,
                                 nullptr, /*idempotent=*/true);
  if (!reply) return reply.status();
  if (reply.value().type == MessageType::kError) {
    return decode_error(reply.value());
  }
  // We now hold this source's bytes: start (or refresh) its lease on the
  // cache that issued the fetch.
  cache_for(sid).renew_lease(home, vnow_ns());
  if (telemetry_.tracing()) {
    telemetry_.annotate("lease renewed: source " + std::to_string(home));
  }
  return std::move(reply.value().payload);
}

void Runtime::charge_fault() {
  if (sim_ != nullptr) sim_->charge_fault(*vclock_);
}

Result<ByteBuffer> Runtime::deref_remote(const LongPointer& pointer) {
  Message msg;
  msg.type = MessageType::kDeref;
  msg.to = pointer.space;
  msg.session = current_session();
  msg.seq = endpoint_.next_seq();
  xdr::Encoder enc(msg.payload);
  encode_long_pointer(enc, pointer);
  // A dereference is a read: safe to retransmit.
  auto reply = guarded_roundtrip(std::move(msg), MessageType::kDerefReply,
                                 full_dispatcher_, /*idempotent=*/true);
  if (!reply) return reply.status();
  if (reply.value().type == MessageType::kError) {
    return decode_error(reply.value());
  }
  return std::move(reply.value().payload);
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

Result<ByteBuffer> Runtime::call_raw(SpaceId target, const std::string& proc,
                                     ByteBuffer args,
                                     std::span<const std::uint64_t> pointer_roots) {
  if (target == self_) {
    return invalid_argument("call to own address space");
  }
  // Safe point: run deferred dead-peer containment and lease checks before
  // the activity moves.
  poll_failures();
  // The activity is about to move: flush batched memory operations first
  // (provisional identities must not cross in the modified set), then
  // attach the travelling modified data set and the arguments' closure.
  SRPC_RETURN_IF_ERROR(flush_alloc_batches());

  Message msg;
  msg.type = MessageType::kCall;
  msg.to = target;
  msg.session = current_session();
  msg.seq = endpoint_.next_seq();
  xdr::Encoder enc(msg.payload);
  enc.put_string(proc);
  std::vector<ShippedRecord> shipped;
  SRPC_RETURN_IF_ERROR(attach_modified_set(msg.payload, target,
                                           /*write_back=*/false,
                                           /*encoded=*/nullptr, &shipped));
  SRPC_RETURN_IF_ERROR(attach_closures(msg.payload, pointer_roots));
  msg.payload.append(args.view());

  ++stats_.calls_sent;
  // Full re-entrant service while blocked: nested calls back into this
  // space, fetches against our heap, etc. A CALL executes arbitrary user
  // code, so it is never retransmitted — on a deadline the caller aborts
  // the session instead (at-most-once execution; the receiver additionally
  // absorbs duplicated deliveries by request id).
  auto reply = guarded_roundtrip(std::move(msg), MessageType::kReturn,
                                 full_dispatcher_, /*idempotent=*/false);
  if (!reply) return reply.status();
  if (reply.value().type == MessageType::kError) {
    return decode_error(reply.value());
  }
  // The callee saw (and now holds) everything we shipped.
  commit_shipped(target, shipped);
  ByteBuffer payload = std::move(reply.value().payload);
  SRPC_RETURN_IF_ERROR(apply_modified_set(payload, target));
  SRPC_RETURN_IF_ERROR(apply_closures(payload));
  // Cursor now rests at the marshalled results.
  return payload;
}

Result<Runtime::RawCallFuture> Runtime::call_async(
    SpaceId target, const std::string& proc, ByteBuffer args,
    std::span<const std::uint64_t> pointer_roots) {
  if (target == self_) {
    return invalid_argument("call to own address space");
  }
  // Same preamble as call_raw: safe point, then flush batched memory ops
  // before the modified set and closures are packed. Each async call ships
  // the modified set as of ITS issue point.
  poll_failures();
  SRPC_RETURN_IF_ERROR(flush_alloc_batches());

  Message msg;
  msg.type = MessageType::kCall;
  msg.to = target;
  msg.session = current_session();
  msg.seq = endpoint_.next_seq();
  const std::uint64_t seq = msg.seq;
  xdr::Encoder enc(msg.payload);
  enc.put_string(proc);
  std::vector<ShippedRecord> shipped;
  SRPC_RETURN_IF_ERROR(attach_modified_set(msg.payload, target,
                                           /*write_back=*/false,
                                           /*encoded=*/nullptr, &shipped));
  SRPC_RETURN_IF_ERROR(attach_closures(msg.payload, pointer_roots));
  msg.payload.append(args.view());

  ++stats_.calls_sent;
  // At-most-once semantics are unchanged: a CALL is never retransmitted
  // (idempotent=false caps it at one attempt against the full deadline).
  auto promise = std::make_shared<Promise<Message>>();
  auto fut = promise->get_future();
  auto issued = issue_guarded(std::move(msg), MessageType::kReturn,
                              /*idempotent=*/false, promise);
  if (!issued) return issued.status();
  // get() drives the shared endpoint with full re-entrant service — the
  // future always blocks on the worker's ground stack, never in a handler.
  promise->set_pump([this](std::chrono::steady_clock::time_point deadline) {
    return pump_guarded(deadline);
  });
  // An abandoned future cancels its slot: the completion hooks settle with
  // UNAVAILABLE (closing the client span) and a late reply is absorbed as
  // stale by seq matching.
  promise->set_on_drop([this, seq] { (void)endpoint_.cancel(seq); });
  return RawCallFuture(this, current_session(), target, seq,
                       std::move(shipped), std::move(fut));
}

Result<ByteBuffer> Runtime::RawCallFuture::get(
    std::chrono::steady_clock::time_point deadline) {
  Runtime& rt = *rt_;
  // Re-pin the issuing session: the reply's side effects (ship-state
  // commit, modified set, closure incorporation) must land in the same
  // session scope the call was issued under, whatever scope the caller
  // happens to be in when it finally collects.
  ScopedSession scope(rt, session_);
  auto reply = fut_.get(deadline);
  if (!reply) return reply.status();
  Message msg = std::move(reply.value());
  if (msg.type == MessageType::kError) {
    return rt.decode_error(msg);
  }
  // The callee saw (and now holds) everything this call shipped.
  rt.commit_shipped(target_, shipped_);
  ByteBuffer payload = std::move(msg.payload);
  SRPC_RETURN_IF_ERROR(rt.apply_modified_set(payload, target_));
  SRPC_RETURN_IF_ERROR(rt.apply_closures(payload));
  // Cursor now rests at the marshalled results.
  return payload;
}

Status Runtime::serve_call(Message msg) {
  ++stats_.calls_served;
  if (multi_session_) {
    // Concurrent mode: every session gets its own cache overlay, so there
    // is nothing to protect — just make sure the session is tracked here
    // (its state is what the invalidation multicast tears down later).
    (void)state_for(msg.session);
  } else {
    // One RPC session at a time: refuse to mix another session's activity
    // into a cache that still holds this one's data (see cache_session_).
    const bool cache_in_use =
        cache_.table().size() > 0 || !ambient_state_.updates.empty();
    if (cache_in_use && cache_session_ != kNoSession &&
        cache_session_ != msg.session) {
      return send_error(
          msg.from, msg.session, msg.seq,
          failed_precondition(
              "space busy: cache holds data of another RPC session"));
    }
    cache_session_ = msg.session;
  }
  xdr::Decoder dec(msg.payload);
  auto proc = dec.get_string();
  if (!proc) {
    return send_error(msg.from, msg.session, msg.seq, proc.status());
  }
  Status applied = apply_modified_set(msg.payload, msg.from);
  if (!applied.is_ok()) {
    return send_error(msg.from, msg.session, msg.seq,
                      Status(applied.code(), "modified-set: " + applied.message()));
  }
  applied = apply_closures(msg.payload);
  if (!applied.is_ok()) {
    return send_error(msg.from, msg.session, msg.seq,
                      Status(applied.code(), "closures: " + applied.message()));
  }

  const RawHandler* handler = services_.find(proc.value());
  if (handler == nullptr) {
    return send_error(msg.from, msg.session, msg.seq,
                      not_found("no such procedure: " + proc.value()));
  }

  // The dispatch-level session scope already pins msg.session, so the
  // handler's nested calls/fetches/allocations ride the caller's session.
  CallContext ctx{*this, msg.session, msg.from};
  ByteBuffer results;
  std::vector<std::uint64_t> result_roots;
  Status handled = (*handler)(ctx, msg.payload, results, result_roots);
  if (handled.is_ok()) {
    handled = flush_alloc_batches();
  }
  if (!handled.is_ok()) {
    return send_error(msg.from, msg.session, msg.seq, handled);
  }

  Message reply;
  reply.type = MessageType::kReturn;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  std::vector<ShippedRecord> shipped;
  Status built = attach_modified_set(reply.payload, msg.from,
                                     /*write_back=*/false,
                                     /*encoded=*/nullptr, &shipped);
  if (built.is_ok()) built = attach_closures(reply.payload, result_roots);
  if (!built.is_ok()) {
    return send_error(msg.from, msg.session, msg.seq, built);
  }
  reply.payload.append(results.view());
  Status sent = endpoint_.send(std::move(reply));
  if (sent.is_ok()) commit_shipped(msg.from, shipped);
  return sent;
}

Status Runtime::serve_fetch(Message msg) {
  ++stats_.fetches_served;
  xdr::Decoder dec(msg.payload);
  auto budget = dec.get_u64();
  if (!budget) return send_error(msg.from, msg.session, msg.seq, budget.status());
  auto wide = dec.get_u32();
  if (!wide) return send_error(msg.from, msg.session, msg.seq, wide.status());
  auto base = dec.get_u64();
  if (!base) return send_error(msg.from, msg.session, msg.seq, base.status());
  auto count = dec.get_u32();
  if (!count) return send_error(msg.from, msg.session, msg.seq, count.status());

  std::vector<std::uint64_t> roots;
  roots.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    if (wide.value() != 0) {
      auto addr = dec.get_u64();
      if (!addr) return send_error(msg.from, msg.session, msg.seq, addr.status());
      roots.push_back(addr.value());
    } else {
      auto delta = dec.get_u32();
      if (!delta) return send_error(msg.from, msg.session, msg.seq, delta.status());
      roots.push_back(base.value() + delta.value());
    }
  }

  auto packed = packer_.pack(roots, budget.value(), /*require_roots=*/true);
  if (!packed) {
    return send_error(msg.from, msg.session, msg.seq, packed.status());
  }
  // Record what the session observed — the roots and everything shipped
  // with them: shared lock + version snapshot, validated against its write
  // manifest at WB_PREPARE time.
  note_shipped_reads(msg.session, packed.value());

  Message reply;
  reply.type = MessageType::kFetchReply;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  xdr::Encoder enc(reply.payload);
  enc.put_u32(static_cast<std::uint32_t>(packed.value().groups.size()));
  for (const auto& [space, refs] : packed.value().groups) {
    Status encoded = encode_graph_payload(codec_, arch_, space, refs, *this,
                                          reply.payload);
    if (!encoded.is_ok()) {
      return send_error(msg.from, msg.session, msg.seq, encoded);
    }
  }
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_alloc_batch(Message msg) {
  ++stats_.alloc_batches_served;
  xdr::Decoder dec(msg.payload);
  auto nalloc = dec.get_u32();
  if (!nalloc) return send_error(msg.from, msg.session, msg.seq, nalloc.status());

  Message reply;
  reply.type = MessageType::kAllocReply;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  xdr::Encoder enc(reply.payload);
  enc.put_u32(nalloc.value());

  for (std::uint32_t i = 0; i < nalloc.value(); ++i) {
    auto prov = dec.get_u64();
    if (!prov) return send_error(msg.from, msg.session, msg.seq, prov.status());
    auto type = dec.get_u32();
    if (!type) return send_error(msg.from, msg.session, msg.seq, type.status());
    auto mem = heap_.allocate(type.value(), 1);
    if (!mem) return send_error(msg.from, msg.session, msg.seq, mem.status());
    // Track remote provenance until the session settles: a committed
    // session promotes the storage to durable home data, an aborted or
    // orphaned one gets it reclaimed.
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(mem.value());
    (void)heap_.tag_owner(addr, msg.from, msg.session);
    if (recovery_ != nullptr) {
      // Logged before the grant is acknowledged: the requester is about to
      // hold long pointers into this storage, so a reincarnation must be
      // able to re-register the exact range.
      const ManagedHeap::Record* rec = heap_.find_base(addr);
      recovery_->note_alloc(addr, rec->type, rec->count, rec->size, msg.from,
                            msg.session);
    }
    enc.put_u64(prov.value());
    enc.put_u64(addr);
  }

  auto nfree = dec.get_u32();
  if (!nfree) return send_error(msg.from, msg.session, msg.seq, nfree.status());
  for (std::uint32_t i = 0; i < nfree.value(); ++i) {
    auto addr = dec.get_u64();
    if (!addr) return send_error(msg.from, msg.session, msg.seq, addr.status());
    Status freed = heap_.free(reinterpret_cast<void*>(addr.value()));
    if (!freed.is_ok()) {
      SRPC_WARN << "remote free failed: " << freed.to_string();
    } else if (recovery_ != nullptr) {
      recovery_->note_free(addr.value());
    }
  }
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_invalidate(Message msg) {
  // An optional flag distinguishes a committed end (0) from an abort (1);
  // the legacy empty payload means a normal end.
  bool aborted = false;
  if (msg.payload.remaining() > 0) {
    xdr::Decoder dec(msg.payload);
    auto flag = dec.get_u32();
    if (flag) aborted = flag.value() != 0;
  }
  if (multi_session_) {
    SessionState* st = sessions_.find(msg.session);
    if (st != nullptr && st->local) {
      // A peer cascade-forwarded the invalidation back to the session's own
      // coordinator while its ground is mid-teardown. The ground owns the
      // unwind — closing the state here would leave end_session()/
      // abort_session() holding dangling references — so only re-ack.
      Message reply;
      reply.type = MessageType::kInvalidateAck;
      reply.to = msg.from;
      reply.session = msg.session;
      reply.seq = msg.seq;
      return endpoint_.send(std::move(reply));
    }
    // Home-side arbitration state (locks, observed versions, stage marks)
    // dies with the session whether it committed or aborted.
    arbiter_.release(msg.session);
    std::vector<SpaceId> forward;
    if (st != nullptr) {
      if (st->span != SpanRecorder::kNoSpan) {
        telemetry_.tracer().finish(st->span, telemetry_.now_ns(), !aborted);
      }
      // Peers this space pulled into the session on the closing ground's
      // behalf may never have heard from that ground directly: forward the
      // invalidation so the whole reachable participant graph converges.
      for (const SpaceId peer : st->touched) {
        if (peer == self_ || peer == msg.from || detector_.is_dead(peer)) {
          continue;
        }
        forward.push_back(peer);
      }
      if (st->cache) st->cache->invalidate_all();
      if (st->allocator) st->allocator->clear();
      sessions_.close(msg.session);
    }
    for (const SpaceId peer : forward) {
      Message fwd;
      fwd.type = MessageType::kInvalidate;
      fwd.to = peer;
      fwd.session = msg.session;
      fwd.seq = endpoint_.next_seq();
      xdr::Encoder enc(fwd.payload);
      enc.put_u32(aborted ? 1u : 0u);
      auto ack = guarded_roundtrip(std::move(fwd), MessageType::kInvalidateAck,
                                   full_dispatcher_, /*idempotent=*/true);
      if (!ack) {
        SRPC_WARN << name_ << ": invalidate cascade to space " << peer
                  << " failed: " << ack.status().to_string();
      }
    }
  } else if (cache_session_ == kNoSession || cache_session_ == msg.session) {
    // Invalidation is scoped to its session: a multicast from some other
    // ground must not nuke data a different (still open) session put here.
    cache_.invalidate_all();
    allocator_.clear();
    ambient_state_.updates.clear();
    ambient_state_.clear_ship();
    cache_session_ = kNoSession;
  }
  // Settle the session's extended_malloc storage in our heap: a committed
  // session's allocations become durable home data; an aborted session's
  // are orphans and are reclaimed. Both operations are idempotent, so
  // retransmitted INVALIDATEs are harmless.
  if (aborted) {
    const std::uint64_t reclaimed = heap_.reclaim_session(msg.session);
    stats_.orphan_bytes_reclaimed += reclaimed;
    if (reclaimed > 0) {
      SRPC_WARN << name_ << ": reclaimed " << reclaimed
                << " orphaned bytes of aborted session " << msg.session;
    }
  } else {
    (void)heap_.promote_session(msg.session);
  }
  // Any staged (never committed) write-back of this session dies with it.
  shadow_commits_.erase(msg.session);
  committed_epochs_.erase(msg.session);
  // The session is over: refuse any straggler (delayed or replayed
  // message) that still carries its id, so it cannot repopulate the cache.
  // Retransmitted INVALIDATEs still land here and are acked again.
  if (recovery_ != nullptr && !is_dead_session(msg.session)) {
    recovery_->note_settle(msg.session, aborted);
  }
  tombstone_session(msg.session);
  Message reply;
  reply.type = MessageType::kInvalidateAck;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  Status sent = endpoint_.send(std::move(reply));
  // Settlement is the checkpoint cadence: the session's effects are final
  // and the log up to here can be superseded by one heap image.
  maybe_checkpoint();
  return sent;
}

// ---------------------------------------------------------------------------
// Two-phase write-back (home side) and failure-detector probes
// ---------------------------------------------------------------------------

Status Runtime::serve_wb_prepare(Message msg) {
  ++stats_.wb_prepares_served;
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg.from, msg.session, msg.seq, epoch.status());

  // Multi-session prepares carry a write manifest (the home addresses the
  // batch will overwrite) ahead of the modified-set section. The manifest
  // must be consumed even on a duplicate so the stage cursor lands on the
  // section either way.
  std::vector<std::uint64_t> writes;
  if (multi_session_) {
    auto n = dec.get_u32();
    if (!n) return send_error(msg.from, msg.session, msg.seq, n.status());
    writes.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto addr = dec.get_u64();
      if (!addr) return send_error(msg.from, msg.session, msg.seq, addr.status());
      // Canonicalise interior addresses to the object base the lock table
      // keys on. An address we no longer host (freed, or a blind create)
      // has no version to defend and is skipped.
      const ManagedHeap::Record* record =
          heap_.find(reinterpret_cast<const void*>(addr.value()));
      if (record != nullptr) {
        writes.push_back(reinterpret_cast<std::uint64_t>(record->base));
      }
    }
  }

  const auto committed = committed_epochs_.find(msg.session);
  const bool already_applied =
      committed != committed_epochs_.end() && committed->second >= epoch.value();
  if (!already_applied && multi_session_) {
    // Arbitration gate: stale reads or a wound lose here, before anything
    // is staged, and the ground aborts + retries the whole session. The
    // gate is timed as a "concurrency.lock" span so the critical-path
    // analyzer can attribute commit latency to lock arbitration.
    const std::uint64_t lock_start = telemetry_.now_ns();
    SpanRecorder::Handle lock_span = SpanRecorder::kNoSpan;
    if (telemetry_.tracing()) {
      lock_span = telemetry_.tracer().start_local(
          "lock validate session " + std::to_string(msg.session),
          "concurrency.lock", lock_start);
    }
    Status granted = arbiter_.validate_prepare(msg.session, writes);
    const std::uint64_t lock_end = telemetry_.now_ns();
    if (lock_span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().finish(lock_span, lock_end, granted.is_ok());
    }
    telemetry_.hist("concurrency.lock_wait_ns").record(lock_end - lock_start);
    if (!granted.is_ok()) {
      telemetry_.flight().event(FlightEventKind::kWbConflict, vnow_ns(),
                                msg.from, "prepare refused", 0, msg.session);
      return send_error(msg.from, msg.session, msg.seq, granted);
    }
  }
  if (!already_applied) {
    ShadowCommit& shadow = shadow_commits_[msg.session];
    if (shadow.epoch <= epoch.value()) {
      // Stage (or re-stage — retransmits and duplicates carry identical
      // bytes) the modified-set section. Nothing is applied yet.
      shadow.epoch = epoch.value();
      shadow.from = msg.from;
      // Shm-lane prepare: the slice borrows the arena region and shares
      // its pin, so staging costs zero bytes and the region stays alive
      // exactly until WB_COMMIT/WB_ABORT (or dead-peer cleanup) erases
      // this shadow entry. Byte-lane prepare: a plain copy, as before.
      shadow.staged = msg.payload.slice_remaining();
      if (recovery_ != nullptr) {
        // Journal the stage before it is acknowledged: once the ack lands
        // the coordinator may decide to commit, and a reincarnation of
        // this home must still hold the bytes to roll forward.
        recovery_->note_prepare(msg.session, epoch.value(), msg.from,
                                shadow.staged.data(), shadow.staged.size());
      }
    }
    // A prepare older than the current stage is a straggler from an
    // abandoned attempt: ignore its bytes but still ack (the retransmit
    // machinery only needs to hear that *a* prepare landed).
  }

  Message reply;
  reply.type = MessageType::kWbPrepareAck;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_wb_commit(Message msg) {
  ++stats_.wb_commits_served;
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg.from, msg.session, msg.seq, epoch.status());

  const auto committed = committed_epochs_.find(msg.session);
  if (committed != committed_epochs_.end() && committed->second >= epoch.value()) {
    // Duplicate or retransmitted commit: already applied, just re-ack.
  } else {
    auto it = shadow_commits_.find(msg.session);
    if (it == shadow_commits_.end() || it->second.epoch != epoch.value()) {
      return send_error(
          msg.from, msg.session, msg.seq,
          failed_precondition("no staged write-back for session " +
                              std::to_string(msg.session) + " epoch " +
                              std::to_string(epoch.value())));
    }
    it->second.staged.reset_cursor();  // a failed earlier apply may have read
    Status applied = apply_modified_set(it->second.staged, it->second.from);
    if (!applied.is_ok()) {
      return send_error(msg.from, msg.session, msg.seq, applied);
    }
    committed_epochs_[msg.session] = epoch.value();
    shadow_commits_.erase(it);
    if (recovery_ != nullptr) {
      recovery_->note_commit(msg.session, epoch.value());
    }
    if (multi_session_) {
      // The write-back is durable: bump the versions of everything it
      // touched so later validations see the new world, and release this
      // session's locks and observations.
      arbiter_.commit(msg.session);
    }
  }

  Message reply;
  reply.type = MessageType::kWbCommitAck;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_wb_abort(Message msg) {
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg.from, msg.session, msg.seq, epoch.status());

  auto it = shadow_commits_.find(msg.session);
  // Drop only the stage the abort names (or older): a delayed abort from an
  // abandoned attempt must not kill a newer attempt's stage.
  if (it != shadow_commits_.end() && it->second.epoch <= epoch.value()) {
    ++stats_.wb_aborts_served;
    shadow_commits_.erase(it);
    if (recovery_ != nullptr) {
      recovery_->note_abort(msg.session, epoch.value());
    }
    if (multi_session_) {
      // Only an abort that actually dropped a stage releases arbitration
      // state: a straggler from an abandoned attempt must not free the
      // locks a newer prepare of the same session just validated under.
      arbiter_.release(msg.session);
    }
  }
  // Always ack — aborts must be re-ackable even after the stage is long
  // gone (and even for tombstoned sessions).
  Message reply;
  reply.type = MessageType::kWbAbortAck;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_ping(Message msg) {
  Message reply;
  reply.type = MessageType::kPong;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_deref(Message msg) {
  ++stats_.derefs_served;
  xdr::Decoder dec(msg.payload);
  auto lp = decode_long_pointer(dec);
  if (!lp) return send_error(msg.from, msg.session, msg.seq, lp.status());
  if (lp.value().space != self_) {
    return send_error(msg.from, msg.session, msg.seq,
                      invalid_argument("deref for data homed elsewhere"));
  }
  const ManagedHeap::Record* record = heap_.find_base(lp.value().address);
  if (record == nullptr) {
    return send_error(msg.from, msg.session, msg.seq,
                      not_found("deref of unknown datum: " + lp.value().to_string()));
  }
  if (multi_session_ && msg.session != kNoSession) {
    // The session observed this object's current version; a later commit
    // by anyone else invalidates that read at WB_PREPARE time.
    arbiter_.note_read(msg.session,
                       reinterpret_cast<std::uint64_t>(record->base));
  }
  Message reply;
  reply.type = MessageType::kDerefReply;
  reply.to = msg.from;
  reply.session = msg.session;
  reply.seq = msg.seq;
  xdr::Encoder enc(reply.payload);
  LongPointerFieldCodec pointer_codec(*this);
  Status encoded =
      codec_.encode(arch_, record->type, record->base, enc, pointer_codec);
  if (!encoded.is_ok()) {
    return send_error(msg.from, msg.session, msg.seq, encoded);
  }
  return endpoint_.send(std::move(reply));
}

// ---------------------------------------------------------------------------
// Sessions (paper §3.1, §3.4)
// ---------------------------------------------------------------------------

Result<SessionId> Runtime::begin_session() {
  if (!multi_session_ && session_ != kNoSession) {
    return failed_precondition("session already active");
  }
  if (incarnation_ != 0) {
    // Recovery worlds partition the 32-bit counter field by incarnation
    // (2^24 sessions per life, 256 lives): a prior life's ids are
    // tombstoned at every home it touched, so minting one again would be
    // refused as a dead straggler. Running off the end of the partition —
    // or past life 256, where the seed itself exceeds 32 bits — must fail
    // loudly instead of bleeding into a neighbouring life's ids or
    // corrupting the space-id field that `session >> 32` recovers.
    const std::uint64_t next = session_counter_ + 1;
    if (next > 0xFFFFFFFFull ||
        (next >> 24) != static_cast<std::uint64_t>(incarnation_) - 1) {
      return resource_exhausted(
          "session-id partition exhausted for incarnation " +
          std::to_string(incarnation_) + " of space " + std::to_string(self_));
    }
  }
  const SessionId id = (static_cast<SessionId>(self_) << 32) |
                       (++session_counter_ & 0xFFFFFFFFull);
  if (multi_session_) {
    SessionState& st = state_for(id);
    st.local = true;
    // Materialise the cache overlay now: the ground is about to use it, and
    // arena reservation should not be charged to the first fetch.
    (void)cache_for(id);
    // The ambient session backs the no-argument end/abort overloads (and
    // legacy callers that never learned ids): first-open wins.
    if (session_ == kNoSession) session_ = id;
    if (telemetry_.tracing()) {
      ScopedSession scope(*this, id);
      st.span = telemetry_.tracer().start_local(
          "session " + std::to_string(id), "session", telemetry_.now_ns());
    }
    return id;
  }
  session_ = id;
  cache_session_ = id;
  if (telemetry_.tracing()) {
    // Single-session mode has no ScopedSession wrapping each operation, so
    // stamp the tracer's ambient session for the session's whole lifetime —
    // every span recorded until end/abort is attributable to it.
    telemetry_.tracer().set_session(id);
    ambient_state_.span = telemetry_.tracer().start_local(
        "session " + std::to_string(id), "session", telemetry_.now_ns());
  }
  return id;
}

Status Runtime::end_session() {
  if (session_ == kNoSession) {
    return failed_precondition("no active session");
  }
  return end_session(session_);
}

Status Runtime::end_session(SessionId id) {
  if (multi_session_) {
    if (sessions_.find(id) == nullptr) {
      return failed_precondition("unknown session " + std::to_string(id));
    }
  } else if (id == kNoSession || id != session_) {
    return failed_precondition("session " + std::to_string(id) +
                               " is not the active session");
  }
  // Pin the whole commit to `id`: every nested fetch, flush, span, and
  // write-back below is attributed to this session even when the worker
  // interleaves other sessions' serves through full_dispatcher_.
  ScopedSession scope(*this, id);
  SessionState& st = cur_state();
  CacheManager& session_cache =
      multi_session_ && st.cache ? *st.cache : cache_;
  RemoteAllocator& session_alloc =
      multi_session_ && st.allocator ? *st.allocator : allocator_;
  // While a commit is in flight the worker may serve other traffic: a
  // roundtrip that refuses to serve would deadlock two grounds committing
  // at each other, so multi-session mode always passes the full dispatcher.
  const RpcEndpoint::Dispatcher no_serve;
  const RpcEndpoint::Dispatcher& serve_during_commit =
      multi_session_ ? full_dispatcher_ : no_serve;
  const std::uint64_t t_start = telemetry_.now_ns();
  poll_failures();
  SRPC_RETURN_IF_ERROR(flush_alloc_batches());
  st.status = SessionStatus::kCommitting;

  // Examine the modified data set and write each datum back to its home,
  // one coalesced batch per home peer. Data whose final content the home
  // already observed (epoch/fingerprint match from the last hop) is skipped
  // entirely; a home with nothing left to learn gets no message.
  //
  // Each batch travels as WB_PREPARE: the home stages it in a shadow buffer
  // keyed by {session, epoch} and applies nothing yet. Only when EVERY home
  // has acknowledged its prepare does phase two commit them all — so a
  // crash, partition, or deadline during phase one aborts cleanly
  // everywhere and no home is left half-new.
  // The modified set is collected (and diffed) once; each home's batch is
  // built from its share, in collection order.
  std::map<SpaceId, std::vector<CacheManager::ModifiedDatum>> homes;
  for (auto& d : session_cache.collect_modified_deltas()) {
    if (d.id.space != self_) homes[d.id.space].push_back(std::move(d));
  }

  const std::uint64_t epoch = ++wb_epoch_;
  // Every phase below fans out through fan_out(): all frames in flight at
  // once, or (parallel_commit_ off, the bench baseline) one at a time.
  const std::size_t width = parallel_commit_ ? kFullWidth : 1;

  // Builds the phase-two/abort frame (epoch only) for one home.
  auto epoch_message = [&](MessageType type, SpaceId home) {
    Message msg;
    msg.type = type;
    msg.to = home;
    msg.session = id;
    msg.seq = endpoint_.next_seq();
    xdr::Encoder enc(msg.payload);
    enc.put_u64(epoch);
    return msg;
  };

  // Encode every home's batch first, then ship.
  struct HomeBatch {
    SpaceId home;
    std::vector<ShippedRecord> shipped;
    Message msg;
  };
  std::vector<HomeBatch> batch;
  Status failure = Status::ok();
  for (auto& [home, homed] : homes) {
    Message msg;
    msg.type = MessageType::kWbPrepare;
    msg.to = home;
    msg.session = id;
    msg.seq = endpoint_.next_seq();
    xdr::Encoder enc(msg.payload);
    enc.put_u64(epoch);
    std::size_t encoded = 0;
    std::vector<ShippedRecord> shipped;
    // Multi-session prepares carry a write manifest (the home addresses
    // this batch overwrites) for the home's arbitration. It precedes the
    // modified-set section but is derived from it, so the section is
    // encoded into a scratch buffer first, then spliced.
    ByteBuffer section;
    failure = attach_modified_set(multi_session_ ? section : msg.payload, home,
                                  /*write_back=*/true, &encoded, &shipped,
                                  &homed);
    if (!failure.is_ok()) break;
    if (encoded == 0) continue;  // home already holds the final content
    if (multi_session_) {
      enc.put_u32(static_cast<std::uint32_t>(shipped.size()));
      for (const ShippedRecord& r : shipped) enc.put_u64(r.id.address);
      msg.payload.append(section.view());
    }
    batch.push_back(HomeBatch{home, std::move(shipped), std::move(msg)});
  }

  // Homes that acknowledged their prepare (indexes into `batch`). A
  // prepare is idempotent — a retransmit re-stages the same bytes under the
  // same epoch — so lost acks are recovered under the same seq.
  std::vector<std::size_t> prepared;
  if (failure.is_ok()) {
    failure = fan_out(
        batch.size(), width,
        [&](std::size_t i) {
          ++stats_.wb_prepares;
          if (telemetry_.tracing()) {
            telemetry_.annotate("wb prepare: home " +
                                std::to_string(batch[i].home) + " epoch " +
                                std::to_string(epoch));
          }
          return issue_guarded(std::move(batch[i].msg),
                               MessageType::kWbPrepareAck, /*idempotent=*/true);
        },
        [&](std::size_t i, std::uint64_t seq) -> Status {
          auto ack = collect_guarded(seq, serve_during_commit);
          if (!ack) return ack.status();
          if (ack.value().type == MessageType::kError) {
            Status err = decode_error(ack.value());
            if (err.code() == StatusCode::kConflict) {
              // WB_CONFLICT: the home's arbiter refused the prepare (stale
              // read, wound, or an older writer holds the object). The
              // session lost; the caller aborts it and retries under
              // backoff.
              ++stats_.wb_conflicts;
              telemetry_.count("concurrency.wb_conflicts");
              telemetry_.flight().event(FlightEventKind::kWbConflict,
                                        vnow_ns(), batch[i].home,
                                        "lost arbitration", 0, id);
              SRPC_WARN << name_ << ": session " << id
                        << " lost arbitration at home " << batch[i].home
                        << ": " << err.to_string();
            }
            return err;
          }
          prepared.push_back(i);
          return Status::ok();
        });
  }

  if (!failure.is_ok()) {
    // Phase one failed somewhere: roll back every staged home, best-effort
    // (a home we cannot reach will drop its stage when the session's
    // INVALIDATE or tombstone eventually lands), so no abort stops the
    // sweep. The session stays open so the caller may retry end_session()
    // or fall back to abort_session().
    //
    // Decision logged before any abort ships: if we crash mid-sweep, our
    // successor's REJOIN tells the still-staged homes to roll back.
    if (recovery_ != nullptr && !prepared.empty()) {
      recovery_->note_decision(id, epoch, /*committed=*/false);
    }
    (void)fan_out(
        prepared.size(), width,
        [&](std::size_t i) -> Result<std::uint64_t> {
          const SpaceId home = batch[prepared[i]].home;
          ++stats_.wb_aborts;
          if (telemetry_.tracing()) {
            telemetry_.annotate("wb abort: home " + std::to_string(home) +
                                " epoch " + std::to_string(epoch));
          }
          auto issued =
              issue_guarded(epoch_message(MessageType::kWbAbort, home),
                            MessageType::kWbAbortAck, /*idempotent=*/true);
          if (!issued) {
            SRPC_WARN << name_ << ": write-back abort to space " << home
                      << " failed: " << issued.status().to_string();
            return std::uint64_t{0};
          }
          return issued;
        },
        [&](std::size_t i, std::uint64_t seq) {
          auto ack = collect_guarded(seq, serve_during_commit);
          if (!ack) {
            SRPC_WARN << name_ << ": write-back abort to space "
                      << batch[prepared[i]].home
                      << " failed: " << ack.status().to_string();
          }
          return Status::ok();
        });
    st.status = SessionStatus::kActive;  // still open: retry or abort
    return failure;
  }

  // Phase two: every home staged successfully — commit them all. A failure
  // here leaves the session open and is safe to retry: homes that already
  // committed re-ack the duplicate epoch, homes that still hold the stage
  // apply it, and a retried end_session() re-prepares only what the
  // fingerprint suppression has not already committed.
  //
  // The commit decision is journaled BEFORE the first WB_COMMIT ships —
  // this is the atomic commit point of the session. If we crash between
  // here and the last ack, our successor's REJOIN carries the decision and
  // every home still holding its stage rolls forward.
  if (recovery_ != nullptr && !prepared.empty()) {
    recovery_->note_decision(id, epoch, /*committed=*/true);
  }
  failure = fan_out(
      prepared.size(), width,
      [&](std::size_t i) {
        const SpaceId home = batch[prepared[i]].home;
        ++stats_.wb_commits;
        if (telemetry_.tracing()) {
          telemetry_.annotate("wb commit: home " + std::to_string(home) +
                              " epoch " + std::to_string(epoch));
        }
        return issue_guarded(epoch_message(MessageType::kWbCommit, home),
                             MessageType::kWbCommitAck, /*idempotent=*/true);
      },
      [&](std::size_t i, std::uint64_t seq) -> Status {
        auto ack = collect_guarded(seq, serve_during_commit);
        if (!ack) return ack.status();
        if (ack.value().type == MessageType::kError) {
          return decode_error(ack.value());
        }
        const HomeBatch& p = batch[prepared[i]];
        commit_shipped(p.home, p.shipped);
        return Status::ok();
      });
  if (!failure.is_ok()) {
    st.status = SessionStatus::kActive;
    return failure;
  }

  // Multicast the invalidation to every space concerned with the session.
  // The explicit aborted=0 flag tells homes the session committed: their
  // extended_malloc storage owned by it is promoted to durable home data.
  // Multi-session mode multicasts only to the peers this session actually
  // touched (each forwards to its own touched set); single-session mode
  // keeps the whole-directory sweep.
  std::vector<SpaceId> invalidate_targets;
  if (multi_session_) {
    invalidate_targets.assign(st.touched.begin(), st.touched.end());
  } else {
    invalidate_targets = directory_();
  }
  failure = fan_out(
      invalidate_targets.size(), width,
      [&](std::size_t i) -> Result<std::uint64_t> {
        const SpaceId peer = invalidate_targets[i];
        // A dead peer has nothing left to invalidate (its pages were
        // revoked, its orphans reclaimed) and must not wedge everyone
        // else's commit.
        if (peer == self_ || detector_.is_dead(peer)) return std::uint64_t{0};
        Message msg;
        msg.type = MessageType::kInvalidate;
        msg.to = peer;
        msg.session = id;
        msg.seq = endpoint_.next_seq();
        xdr::Encoder enc(msg.payload);
        enc.put_u32(0);  // not aborted
        return issue_guarded(std::move(msg), MessageType::kInvalidateAck,
                             /*idempotent=*/true);
      },
      [&](std::size_t, std::uint64_t seq) -> Status {
        auto ack = collect_guarded(seq, serve_during_commit);
        if (!ack) return ack.status();
        if (ack.value().type == MessageType::kError) {
          return decode_error(ack.value());
        }
        return Status::ok();
      });
  if (!failure.is_ok()) {
    st.status = SessionStatus::kActive;
    return failure;
  }

  session_cache.invalidate_all();
  session_alloc.clear();
  st.updates.clear();
  st.clear_ship();
  if (st.span != SpanRecorder::kNoSpan) {
    telemetry_.tracer().finish(st.span, telemetry_.now_ns(), /*ok=*/true);
    st.span = SpanRecorder::kNoSpan;
  }
  ++stats_.sessions_committed;
  telemetry_.hist("session.commit_ns").record(telemetry_.now_ns() - t_start);
  telemetry_.observe_slo("SESSION_COMMIT", telemetry_.now_ns() - t_start);
  if (multi_session_) {
    // Any arbitration state this session left in the local arbiter (it is
    // usually empty — grounds do not fetch from themselves) dies with it.
    arbiter_.release(id);
    if (session_ == id) session_ = kNoSession;
    sessions_.close(id);
  } else {
    cache_session_ = kNoSession;
    session_ = kNoSession;
    if (telemetry_.tracer().session() == id) {
      telemetry_.tracer().set_session(kNoSession);
    }
  }
  return Status::ok();
}

Status Runtime::abort_session() {
  if (multi_session_) {
    return session_ == kNoSession ? Status::ok() : abort_session(session_);
  }
  const SessionId aborting = session_ != kNoSession ? session_ : cache_session_;
  if (aborting == kNoSession && cache_.table().size() == 0 &&
      ambient_state_.updates.empty()) {
    return Status::ok();  // nothing to unwind
  }
  ++stats_.sessions_aborted;
  telemetry_.flight().event(FlightEventKind::kSessionAbort, vnow_ns(),
                            kInvalidSpaceId, {}, 0, aborting);
  SRPC_WARN << name_ << ": aborting session " << aborting;
  poll_failures();

  // Un-flushed extended_malloc/free batches die with the session —
  // provisional identities never reached a home, so there is nothing to
  // undo remotely.
  allocator_.clear();

  // Best-effort invalidation multicast so peers drop (and tombstone) the
  // session too. A failure never stops the local unwind — abort must leave
  // the runtime reusable even on a dead network — but it is reported to the
  // caller: an unreachable live peer still holds session state it will only
  // shed through its own tombstones or failure detection.
  Status worst = Status::ok();
  if (aborting != kNoSession) {
    for (const SpaceId peer : directory_()) {
      if (peer == self_ || detector_.is_dead(peer)) continue;
      Message msg;
      msg.type = MessageType::kInvalidate;
      msg.to = peer;
      msg.session = aborting;
      msg.seq = endpoint_.next_seq();
      // aborted=1: homes discard any staged write-back and reclaim the
      // extended_malloc storage this session created there.
      xdr::Encoder enc(msg.payload);
      enc.put_u32(1);
      auto ack = guarded_roundtrip(std::move(msg), MessageType::kInvalidateAck,
                                   nullptr, /*idempotent=*/true);
      if (!ack) {
        SRPC_WARN << name_ << ": abort invalidate of space " << peer
                  << " failed: " << ack.status().to_string();
        worst = ack.status();
      }
    }
    tombstone_session(aborting);
  }

  // Local unwind: drop every cached page (re-protecting the arena), every
  // pending overlay, and the travelling modified set. The heap (home data)
  // is untouched — only session-scoped state dies.
  cache_.invalidate_all();
  ambient_state_.updates.clear();
  ambient_state_.clear_ship();
  cache_session_ = kNoSession;
  session_ = kNoSession;
  if (telemetry_.tracer().session() == aborting) {
    telemetry_.tracer().set_session(kNoSession);
  }
  if (ambient_state_.span != SpanRecorder::kNoSpan) {
    telemetry_.tracer().annotate(ambient_state_.span, "session aborted",
                                 telemetry_.now_ns());
    telemetry_.tracer().finish(ambient_state_.span, telemetry_.now_ns(),
                               /*ok=*/false);
    ambient_state_.span = SpanRecorder::kNoSpan;
  }
  return worst;
}

Status Runtime::abort_session(SessionId id) {
  if (!multi_session_) {
    // A Session object whose session already ended (or was superseded)
    // must not unwind a sibling's state: only the active id may abort.
    const SessionId aborting = session_ != kNoSession ? session_ : cache_session_;
    if (aborting != kNoSession && id != aborting) return Status::ok();
    return abort_session();
  }
  SessionState* st = sessions_.find(id);
  if (st == nullptr) return Status::ok();  // already gone — abort is idempotent
  ScopedSession scope(*this, id);
  ++stats_.sessions_aborted;
  telemetry_.flight().event(FlightEventKind::kSessionAbort, vnow_ns(),
                            kInvalidSpaceId, {}, 0, id);
  SRPC_WARN << name_ << ": aborting session " << id;
  st->status = SessionStatus::kAborted;
  // Un-flushed extended_malloc/free batches die with the session —
  // provisional identities never reached a home, so there is nothing to
  // undo remotely.
  if (st->allocator) st->allocator->clear();
  const std::vector<SpaceId> targets(st->touched.begin(), st->touched.end());
  // Best-effort invalidation to the touched peers (each cascades onward).
  // A failure never stops the local unwind, but is reported to the caller.
  Status worst = Status::ok();
  for (const SpaceId peer : targets) {
    if (peer == self_ || detector_.is_dead(peer)) continue;
    Message msg;
    msg.type = MessageType::kInvalidate;
    msg.to = peer;
    msg.session = id;
    msg.seq = endpoint_.next_seq();
    // aborted=1: homes discard any staged write-back and reclaim the
    // extended_malloc storage this session created there.
    xdr::Encoder enc(msg.payload);
    enc.put_u32(1);
    auto ack = guarded_roundtrip(std::move(msg), MessageType::kInvalidateAck,
                                 full_dispatcher_, /*idempotent=*/true);
    if (!ack) {
      SRPC_WARN << name_ << ": abort invalidate of space " << peer
                << " failed: " << ack.status().to_string();
      worst = ack.status();
    }
  }
  tombstone_session(id);
  arbiter_.release(id);
  // The roundtrips above may have served nested traffic; re-resolve the
  // state before the final unwind in case a cascade already closed it.
  st = sessions_.find(id);
  if (st != nullptr) {
    if (st->cache) st->cache->invalidate_all();
    if (st->span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().annotate(st->span, "session aborted",
                                   telemetry_.now_ns());
      telemetry_.tracer().finish(st->span, telemetry_.now_ns(), /*ok=*/false);
      st->span = SpanRecorder::kNoSpan;
    }
    sessions_.close(id);
  }
  if (session_ == id) session_ = kNoSession;
  return worst;
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

Status Runtime::dispatch(Message msg) {
  // Pin the serve (and everything nested under it — spans, fetches, state
  // lookups) to the session the message names. This is what lets one
  // worker thread interleave many sessions without cross-talk.
  ScopedSession scope(*this, msg.session);
  // Stragglers of invalidated sessions are refused before they can touch
  // any state: a delayed CALL or WB_PREPARE must not repopulate the cache
  // of a session that is already gone. INVALIDATE itself stays servable
  // (retransmits must keep getting acks) and FETCH against tombstones is
  // refused so the requester fails fast rather than resurrecting the id.
  switch (msg.type) {
    case MessageType::kCall:
    case MessageType::kFetch:
    case MessageType::kAllocBatch:
    case MessageType::kWbPrepare:
    case MessageType::kWbCommit:
    case MessageType::kDeref:
      if (is_dead_session(msg.session)) {
        ++stats_.dead_session_rejections;
        SRPC_DEBUG << name_ << ": refusing " << to_string(msg.type)
                   << " from dead session " << msg.session;
        return send_error(msg.from, msg.session, msg.seq,
                          unavailable("session " + std::to_string(msg.session) +
                                      " was invalidated"));
      }
      break;
    default:
      break;
  }

  // Non-idempotent requests execute at most once: a duplicated delivery
  // (the reply for the first copy is en route) is absorbed by request id,
  // before any server span is recorded.
  if (msg.type == MessageType::kCall || msg.type == MessageType::kAllocBatch) {
    if (note_duplicate_request(msg.from, msg.seq)) {
      ++stats_.duplicate_requests_absorbed;
      SRPC_DEBUG << name_ << ": absorbing duplicate " << to_string(msg.type)
                 << " seq=" << msg.seq << " from " << msg.from;
      return Status::ok();
    }
  }

  // Server span covering the serve of one incoming request, parented to
  // the caller's client span through the wire TraceContext (hop + 1). A
  // retransmitted request carries the original context verbatim, so a
  // duplicate serve lands as a sibling of the first — the tree never
  // forks.
  SpanRecorder::Handle span = SpanRecorder::kNoSpan;
  if (telemetry_.tracing()) {
    switch (msg.type) {
      case MessageType::kCall:
      case MessageType::kFetch:
      case MessageType::kAllocBatch:
      case MessageType::kInvalidate:
      case MessageType::kWbPrepare:
      case MessageType::kWbCommit:
      case MessageType::kWbAbort:
      case MessageType::kPing:
      case MessageType::kRejoin:
      case MessageType::kDeref:
        span = telemetry_.tracer().start_server(
            msg.trace, "serve " + std::string(to_string(msg.type)),
            "rpc.server", telemetry_.now_ns());
        break;
      default:
        break;
    }
  }
  if (span == SpanRecorder::kNoSpan) {
    return dispatch_serve(std::move(msg));
  }
  Status served = dispatch_serve(std::move(msg));
  telemetry_.tracer().finish(span, telemetry_.now_ns(), served.is_ok());
  return served;
}

Status Runtime::dispatch_serve(Message msg) {
  switch (msg.type) {
    case MessageType::kCall:
      return serve_call(std::move(msg));
    case MessageType::kAllocBatch:
      return serve_alloc_batch(std::move(msg));
    case MessageType::kFetch:
      return serve_fetch(std::move(msg));
    case MessageType::kInvalidate:
      return serve_invalidate(std::move(msg));
    case MessageType::kWbPrepare:
      return serve_wb_prepare(std::move(msg));
    case MessageType::kWbCommit:
      return serve_wb_commit(std::move(msg));
    case MessageType::kWbAbort:
      // Always servable, even past the tombstone: a lost abort may be
      // retransmitted after the session's INVALIDATE already landed.
      return serve_wb_abort(std::move(msg));
    case MessageType::kPing:
      return serve_ping(std::move(msg));
    case MessageType::kRejoin:
      // Always servable — this is how a reincarnated peer re-enters the
      // world; dedup happens inside by {peer, incarnation}.
      return serve_rejoin(std::move(msg));
    case MessageType::kDeref:
      return serve_deref(std::move(msg));
    case MessageType::kShutdown:
      running_ = false;
      return Status::ok();
    case MessageType::kReturn:
    case MessageType::kFetchReply:
    case MessageType::kAllocReply:
    case MessageType::kInvalidateAck:
    case MessageType::kWbPrepareAck:
    case MessageType::kWbCommitAck:
    case MessageType::kWbAbortAck:
    case MessageType::kPong:
    case MessageType::kRejoinAck:
    case MessageType::kDerefReply:
    case MessageType::kError:
      // A reply whose request already completed: the first copy (or a
      // retransmit's twin) won the await. Absorb silently — this is the
      // sender half of request-id dedup.
      ++stats_.stale_replies_absorbed;
      SRPC_DEBUG << name_ << ": absorbing stale " << to_string(msg.type)
                 << " seq=" << msg.seq << " from " << msg.from;
      return Status::ok();
  }
  SRPC_WARN << name_ << ": dropping out-of-band " << to_string(msg.type)
            << " seq=" << msg.seq << " from " << msg.from;
  return Status::ok();
}

void Runtime::serve_forever() {
  // Label this worker's SRPC_LOG lines with the space name and, on the
  // simulated network, the virtual-clock time.
  if (sim_ != nullptr) {
    set_thread_log_context(
        name_.c_str(),
        [](void* arg) { return static_cast<const Runtime*>(arg)->vnow_ns(); },
        this);
  } else {
    set_thread_log_context(name_.c_str());
  }
  running_ = true;
  while (running_) {
    auto item = endpoint_.next();
    if (!item) break;  // mailbox closed
    if (std::holds_alternative<Task>(item.value())) {
      if (sim_ != nullptr) sim_->resume(*vclock_);
      std::get<Task>(item.value())();
      continue;
    }
    Status served = dispatch(std::get<Message>(std::move(item).value()));
    if (!served.is_ok()) {
      SRPC_ERROR << name_ << ": dispatch failed: " << served.to_string();
    }
  }
}

}  // namespace srpc
