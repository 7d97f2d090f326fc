// AddressSpace — one simulated machine/process in the distributed system.
//
// Owns a Runtime plus the worker thread that executes everything the space
// does: ground-thread user code (posted via run()), served calls, fetches,
// write-backs. The single-worker design realises the paper's execution
// model directly — one active thread, re-entrant service while blocked.
//
// Crash recovery: halt() stops the worker but keeps the runtime;
// reincarnate() retires the dead runtime into a zombie list and constructs
// a fresh Runtime with the same identity, ready for re-configuration and
// start(). The space owns the heap arena, so its storage outlives every
// incarnation: peers hold long pointers into it, and the successor's heap
// restore()s the exact ranges from the recovery log over the same arena.
#pragma once

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/marshal.hpp"
#include "core/runtime.hpp"

namespace srpc {

class AddressSpace {
 public:
  AddressSpace(SpaceId id, std::string name, const ArchModel& arch,
               TypeRegistry& registry, const LayoutEngine& layouts,
               HostTypeMap& host_types, Transport& transport, SimNetwork* sim,
               CacheOptions cache_options,
               std::function<std::vector<SpaceId>()> directory,
               TimeoutConfig timeouts = {},
               std::function<std::uint32_t(SpaceId)> peer_caps = {})
      : id_(id),
        name_(std::move(name)),
        arch_(&arch),
        registry_(&registry),
        layouts_(&layouts),
        host_types_(&host_types),
        transport_(&transport),
        sim_(sim),
        cache_options_(cache_options),
        directory_(std::move(directory)),
        timeouts_(timeouts),
        peer_caps_(std::move(peer_caps)),
        heap_arena_(arch),
        runtime_(make_runtime()) {}

  ~AddressSpace() { shutdown(); }
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Initialises the runtime (cache arena, fault registration) and spawns
  // the worker thread.
  Status start();

  // Closes the mailbox and joins the worker. Idempotent and terminal.
  void shutdown();

  // Crash: stops the worker like shutdown() but leaves the space
  // restartable — reincarnate() + start() bring up the next incarnation.
  void halt();

  // Retires the halted runtime (kept alive as a zombie until the space
  // dies) and builds a fresh Runtime with the same identity over the same
  // heap arena. The caller re-applies per-runtime configuration — recovery
  // log, capabilities, toggles — and then start()s the successor.
  // FAILED_PRECONDITION while the worker is still running.
  Status reincarnate();

  [[nodiscard]] SpaceId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] Mailbox& mailbox() noexcept { return runtime_->mailbox(); }
  [[nodiscard]] std::size_t incarnations_retired() const noexcept {
    return zombies_.size();
  }

  // Executes `fn(Runtime&)` on the space's worker thread and returns its
  // result (rethrows its exceptions). Called from the worker itself it runs
  // inline, so nested run() cannot deadlock.
  template <typename F>
  auto run(F fn) -> std::invoke_result_t<F&, Runtime&> {
    using R = std::invoke_result_t<F&, Runtime&>;
    if (std::this_thread::get_id() == worker_.get_id()) {
      return fn(*runtime_);
    }
    std::packaged_task<R()> task([this, &fn]() -> R { return fn(*runtime_); });
    auto future = task.get_future();
    runtime_->mailbox().push_task([&task] { task(); }).check();
    return future.get();
  }

  // Binds a typed procedure: any callable of shape R(CallContext&, Args...).
  // Safe whether or not the worker is running (it round-trips through the
  // worker when it is).
  template <typename F>
  Status bind(const std::string& name, F fn) {
    if (!started_) {
      return bind_procedure(*runtime_, name, std::move(fn));
    }
    return run([&](Runtime& rt) { return bind_procedure(rt, name, std::move(fn)); });
  }

 private:
  std::unique_ptr<Runtime> make_runtime() {
    return std::make_unique<Runtime>(id_, name_, *arch_, *registry_, *layouts_,
                                     heap_arena_, *host_types_, *transport_, sim_,
                                     cache_options_, directory_, timeouts_,
                                     peer_caps_);
  }

  // Construction parameters, kept so reincarnate() can rebuild the runtime.
  SpaceId id_;
  std::string name_;
  const ArchModel* arch_;
  TypeRegistry* registry_;
  const LayoutEngine* layouts_;
  HostTypeMap* host_types_;
  Transport* transport_;
  SimNetwork* sim_;
  CacheOptions cache_options_;
  std::function<std::vector<SpaceId>()> directory_;
  TimeoutConfig timeouts_;
  std::function<std::uint32_t(SpaceId)> peer_caps_;

  // Every incarnation's heap indexes this one arena; declared before the
  // runtimes so it outlives them.
  HeapArena heap_arena_;
  std::unique_ptr<Runtime> runtime_;
  // Dead incarnations, kept until the space itself dies.
  std::vector<std::unique_ptr<Runtime>> zombies_;
  std::thread worker_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace srpc
