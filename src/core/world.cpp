#include "core/world.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/logging.hpp"

namespace srpc {

World::World(WorldOptions options)
    : options_(options), layouts_(registry_) {
  init_log_level_from_env();  // SRPC_LOG=debug|info|warn|error|off
  if (const char* env = std::getenv("SRPC_TRACE");
      env != nullptr && env[0] != '\0' && std::string_view(env) != "0") {
    options_.tracing = true;
  }
  if (options_.transport == TransportKind::kSimulated) {
    sim_ = std::make_unique<SimNetwork>(options_.cost);
  } else {
    hub_ = std::make_unique<SocketHub>();
  }
  if (options_.fault_injection) {
    Transport& inner = sim_ ? static_cast<Transport&>(*sim_)
                            : static_cast<Transport&>(*hub_);
    fault_ = std::make_unique<FaultTransport>(inner);
  }
  if (options_.shm_payload) {
    shm_arena_ = std::make_unique<ShmArena>(options_.shm_arena_bytes);
  }
}

World::~World() {
  // Stop every space first (close mailboxes, join workers), then the wire.
  for (auto& space : spaces_) {
    space->shutdown();
  }
  if (hub_) hub_->stop();
}

AddressSpace& World::create_space(const std::string& name, const ArchModel& arch) {
  const SpaceId id = static_cast<SpaceId>(spaces_.size());
  Transport& transport = fault_ ? static_cast<Transport&>(*fault_)
                        : sim_  ? static_cast<Transport&>(*sim_)
                                : static_cast<Transport&>(*hub_);
  auto directory = [this]() {
    std::vector<SpaceId> ids;
    ids.reserve(spaces_.size());
    for (const auto& s : spaces_) ids.push_back(s->id());
    return ids;
  };
  // Capability advertisement is evaluated per send, so a later create_space
  // with a foreign ArchModel retracts the arch-dependent capabilities
  // world-wide. Options every space shares (multi_session, recovery) need
  // no bit: each runtime reads them off its own configuration.
  auto peer_caps = [this](SpaceId) -> std::uint32_t {
    std::uint32_t caps = 0;
    if (options_.modified_deltas || options_.shm_payload) {
      bool uniform_arch = true;
      for (const auto& s : spaces_) {
        if (!(s->runtime().arch() == spaces_.front()->runtime().arch())) {
          uniform_arch = false;
          break;
        }
      }
      // Both capabilities ship sender-native layouts, so a single foreign
      // ArchModel retracts them: delta offsets index the sender's layout,
      // and an arena view hands the receiver the sender's raw encoding.
      if (options_.modified_deltas && uniform_arch) caps |= kCapModifiedDelta;
      if (options_.shm_payload && uniform_arch) caps |= kCapShmPayload;
    }
    return caps;
  };
  spaces_.push_back(std::make_unique<AddressSpace>(
      id, name, arch, registry_, layouts_, host_types_, transport, sim_.get(),
      options_.cache, std::move(directory), options_.timeouts,
      std::move(peer_caps)));
  AddressSpace& space = *spaces_.back();
  if (options_.recovery) {
    recovery_logs_.push_back(std::make_unique<RecoveryLog>());
    incarnations_.push_back(1);  // 0 on the wire means "recovery off"
  }
  apply_runtime_config(space);  // before start(): no worker yet

  if (sim_) {
    sim_->attach(id, &space.mailbox());
    space.start().check();
  } else {
    hub_->attach(id, &space.mailbox()).check();
  }
  return space;
}

void World::apply_runtime_config(AddressSpace& space) {
  Runtime& rt = space.runtime();
  if (options_.tracing) rt.set_tracing(true);
  if (options_.multi_session) rt.set_multi_session(true);
  if (shm_arena_) rt.set_shm_arena(shm_arena_.get());
  if (options_.recovery) {
    const SpaceId id = space.id();
    rt.set_recovery(recovery_logs_.at(id).get(), incarnations_.at(id));
    rt.set_checkpoint_interval(options_.checkpoint_interval);
  }
  rt.configure_slo(options_.slo);
  FlightRecorder& flight = rt.telemetry().flight();
  if (options_.flight_events != FlightRecorder::kDefaultCapacity) {
    flight.set_capacity(options_.flight_events);
  }
  if (!options_.flight_dir.empty()) flight.set_dump_dir(options_.flight_dir);
  // Archive every dump at the World so it survives the space's death (a
  // reincarnation gets a fresh Runtime and with it a fresh, empty ring).
  flight.set_dump_sink(
      [this](SpaceId from, std::string_view reason, std::string json) {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        flight_dumps_.push_back({from, std::string(reason), std::move(json)});
      });
}

Status World::start() {
  if (started_) return Status::ok();
  started_ = true;
  if (hub_) {
    SRPC_RETURN_IF_ERROR(hub_->start());
    for (auto& space : spaces_) {
      SRPC_RETURN_IF_ERROR(space->start());
    }
  }
  return Status::ok();
}

void World::mark_suspect(SpaceId id) {
  for (auto& space : spaces_) {
    if (space->id() == id) continue;
    space->runtime().detector().mark_suspect(id);
  }
}

void World::mark_dead(SpaceId id) {
  for (auto& space : spaces_) {
    if (space->id() == id) continue;
    // The detector is thread-safe, so flip the liveness bit immediately —
    // new calls into `id` fail fast right away. The cleanup side effects
    // (lease revocation, orphan reclamation) touch worker-owned state, so
    // they run as a task on that space's own thread.
    space->runtime().detector().mark_dead(id);
    Runtime& rt = space->runtime();
    (void)rt.mailbox().push_task([&rt, id] { rt.on_peer_dead(id); });
  }
}

void World::crash_space(SpaceId id) {
  // Black-box first: record the crash and dump the ring while the dying
  // space's events are still in it. The recorder is thread-safe and the
  // dump archives through the sink, so this is safe from the World thread
  // even while the worker is mid-flight.
  if (id < spaces_.size()) {
    Telemetry& t = spaces_.at(id)->runtime().telemetry();
    t.flight().event(FlightEventKind::kCrash, t.now_ns(), kInvalidSpaceId,
                     "crash_space");
    t.flight().dump("crash_space", t.now_ns());
  }
  if (fault_) fault_->crash_space(id);
  mark_dead(id);
}

Status World::restart_space(SpaceId id) {
  if (!options_.recovery) {
    return failed_precondition("restart_space requires WorldOptions::recovery");
  }
  if (!sim_) {
    return unimplemented("restart_space is simulated-transport only");
  }
  AddressSpace& space = *spaces_.at(id);
  // The crash point was already decided by the transport cut; halting just
  // joins the worker after its in-flight work unwinds with deadline errors.
  space.halt();
  if (fault_) fault_->restart_space(id);
  ++incarnations_.at(id);
  SRPC_RETURN_IF_ERROR(space.reincarnate());
  apply_runtime_config(space);
  // The successor Runtime owns a fresh mailbox; repoint the wire at it.
  sim_->attach(id, &space.mailbox());
  SRPC_RETURN_IF_ERROR(space.start());
  // Replay + rejoin on the successor's own worker; blocking here makes the
  // restart linearisable for callers (tests crash/restart deterministically).
  return space.run([](Runtime& rt) {
    SRPC_RETURN_IF_ERROR(rt.recover_from_log());
    return rt.announce_rejoin();
  });
}

double World::virtual_seconds() const {
  return sim_ ? VirtualClock::to_seconds(sim_->clock().now()) : 0.0;
}

NetworkStats World::net_stats() const {
  return sim_ ? sim_->stats() : NetworkStats{};
}

void World::reset_metering() {
  if (sim_) {
    sim_->reset_stats();
    sim_->clock().reset();
  }
}

void World::set_tracing(bool on) {
  options_.tracing = on;
  for (auto& space : spaces_) {
    // The recorder belongs to the space's worker; flip it there.
    space->run([on](Runtime& rt) { rt.set_tracing(on); });
  }
}

void World::run_concurrent(
    const std::vector<std::pair<AddressSpace*, GroundFn>>& jobs) {
  // One feeder thread per job: each blocks in AddressSpace::run() while the
  // target space's worker executes the ground function, so jobs on
  // different spaces genuinely overlap (and overlapping jobs on one space
  // queue on its mailbox in order).
  std::vector<std::thread> feeders;
  feeders.reserve(jobs.size());
  for (const auto& [space, fn] : jobs) {
    feeders.emplace_back([space, fn] { space->run(fn); });
  }
  for (std::thread& t : feeders) t.join();
}

std::string World::metrics_json() {
  std::string out = "{\n";
  bool first = true;
  for (auto& space : spaces_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + space->name() + "\": ";
    out += space->run([](Runtime& rt) { return rt.metrics_json(); });
  }
  out += "\n}\n";
  return out;
}

std::string World::health_json() {
  std::string out = "{\n";
  // World-level state first: incarnations and arena pressure are owned
  // here, not by any single runtime.
  out += "  \"incarnations\": [";
  for (std::size_t i = 0; i < incarnations_.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(incarnations_[i]);
  }
  out += "],\n";
  if (shm_arena_) {
    const ShmArenaStats as = shm_arena_->stats();
    const std::size_t cap = shm_arena_->capacity();
    out += "  \"arena\": {\"bytes_live\": " + std::to_string(as.bytes_live);
    out += ", \"capacity\": " + std::to_string(cap);
    out += ", \"regions_live\": " + std::to_string(as.regions_live);
    out += ", \"peak_bytes_live\": " + std::to_string(as.peak_bytes_live);
    out += ", \"publish_failures\": " + std::to_string(as.publish_failures);
    char pressure[32];
    std::snprintf(pressure, sizeof(pressure), "%.4f",
                  cap != 0 ? static_cast<double>(as.bytes_live) /
                                 static_cast<double>(cap)
                           : 0.0);
    out += std::string(", \"pressure\": ") + pressure + "},\n";
  }
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    out += "  \"flight_dumps\": " + std::to_string(flight_dumps_.size()) +
           ",\n";
  }
  out += "  \"spaces\": {\n";
  bool first = true;
  for (auto& space : spaces_) {
    if (!first) out += ",\n";
    first = false;
    out += "    \"" + space->name() + "\": ";
    out += space->run([](Runtime& rt) { return rt.health_json(); });
  }
  out += "\n  }\n}\n";
  return out;
}

std::vector<World::FlightDump> World::flight_dumps() const {
  std::lock_guard<std::mutex> lock(flight_mutex_);
  return flight_dumps_;
}

std::vector<SpaceSpans> World::collect_spans() {
  std::vector<SpaceSpans> all;
  all.reserve(spaces_.size());
  for (auto& space : spaces_) {
    SpaceSpans sp;
    sp.space = space->id();
    sp.name = space->name();
    sp.spans = space->run(
        [](Runtime& rt) -> std::vector<Span> { return rt.tracer().spans(); });
    all.push_back(std::move(sp));
  }
  return all;
}

Status World::merge_traces(const std::string& path) {
  return write_chrome_trace(collect_spans(), path);
}

}  // namespace srpc
