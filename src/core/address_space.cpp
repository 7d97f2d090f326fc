#include "core/address_space.hpp"

namespace srpc {

Status AddressSpace::start() {
  if (started_) {
    return failed_precondition("address space already started");
  }
  SRPC_RETURN_IF_ERROR(runtime_->init());
  worker_ = std::thread([this] { runtime_->serve_forever(); });
  started_ = true;
  stopped_ = false;
  return Status::ok();
}

void AddressSpace::shutdown() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  runtime_->mailbox().close();
  if (worker_.joinable()) worker_.join();
}

void AddressSpace::halt() {
  if (!started_ || stopped_) return;
  runtime_->mailbox().close();
  if (worker_.joinable()) worker_.join();
  // Restartable, unlike shutdown(): start() after reincarnate() spins up
  // the successor incarnation's worker.
  started_ = false;
}

Status AddressSpace::reincarnate() {
  if (started_ && !stopped_) {
    return failed_precondition("halt the space before reincarnating");
  }
  // The heap storage belongs to the space's arena, not the runtime: peers
  // keep their long pointers into it, and the successor's log replay
  // restore()s the exact address ranges.
  zombies_.push_back(std::move(runtime_));
  runtime_ = make_runtime();
  started_ = false;
  stopped_ = false;
  return Status::ok();
}

}  // namespace srpc
