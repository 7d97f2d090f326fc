// SimNetwork — the simulated 10 Mbps Ethernet connecting address spaces.
//
// Delivery is immediate (an in-process mailbox push); *cost* is charged in
// virtual time per the CostModel, split so pipelined requests can
// genuinely overlap:
//   - send-side marshal is CPU work on the sender: charged to its clock;
//   - wire occupancy is serialized on the shared Ethernet: a frame takes
//     the earliest gap of the link, at or after its sender's clock, that
//     fits its transmission time (frames hold it in sender-clock order);
//   - fixed latency and receive-side unmarshal are charged on the message's
//     arrival timestamp (arrive_ns); the receiving endpoint deliver()s it
//     when it dequeues the message.
// Each space has its own clock, like a Lamport clock: its charges advance
// it, a message received moves it to at least arrive_ns, and a task posted
// to its worker resume()s at the world clock (clock(): the latest time any
// space has reached, which benches, spans and leases read). Arrival times
// follow from the message trace, not from thread scheduling.
// For a blocking request/reply chain this decomposition telescopes to
// exactly the old per-message advance(message_cost(bytes)) — sequential
// benches and tests see identical virtual time — but N requests in flight
// now share the latency term instead of paying it N times. Charging the
// receive-side unmarshal on the arrival edge models distinct receiving
// CPUs; for a fan-in of replies to one space it slightly under-charges
// that space (bounded by the overlapped replies' marshal bytes).
//
// SimNetwork also keeps per-message-type counters; Figure 5 ("number of
// callbacks") is read straight off these.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/virtual_clock.hpp"
#include "net/cost_model.hpp"
#include "net/transport.hpp"

namespace srpc {

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  // Indexed by MessageType's underlying value.
  std::array<std::uint64_t, 32> messages_by_type{};
  std::array<std::uint64_t, 32> bytes_by_type{};

  [[nodiscard]] std::uint64_t count(MessageType t) const noexcept {
    return messages_by_type[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint64_t bytes(MessageType t) const noexcept {
    return bytes_by_type[static_cast<std::size_t>(t)];
  }
};

class SimNetwork final : public Transport {
 public:
  explicit SimNetwork(CostModel cost = CostModel::sparc_ethernet()) : cost_(cost) {}

  // Registers a space's mailbox. Worlds attach all spaces before traffic
  // starts; a restarted space re-attaches and keeps its clock.
  void attach(SpaceId space, Mailbox* mailbox);

  Status send(Message&& msg) override;

  // `space`'s own clock, valid for the network's lifetime.
  [[nodiscard]] VirtualClock& clock_of(SpaceId space);

  // Charges the MMU access-violation cost to a space's clock (called by
  // the cache manager for every fault taken on a protected page).
  void charge_fault(VirtualClock& space) noexcept {
    space.advance(cost_.per_fault_ns);
    clock_.advance_to(space.now());
  }
  // Receive edge: the space dequeued a message stamped `arrive_ns`.
  void deliver(VirtualClock& space, std::uint64_t arrive_ns) noexcept {
    space.advance_to(arrive_ns);
    clock_.advance_to(space.now());
  }
  // The space starts work no message caused (a task posted to its worker):
  // that work begins at the world clock.
  void resume(VirtualClock& space) noexcept { space.advance_to(clock_.now()); }

  [[nodiscard]] VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cost_; }

  [[nodiscard]] NetworkStats stats() const;
  void reset_stats();  // and every space's clock and the link

 private:
  struct Port {
    Mailbox* mailbox = nullptr;
    VirtualClock clock;
  };
  // Frames the link remembers; older ones no longer hold back a frame.
  static constexpr std::size_t kLinkWindow = 64;

  // Books the earliest gap at or after `ready` that fits `hold` ns;
  // returns when the frame clears the wire.
  std::uint64_t reserve_link(std::uint64_t ready, std::uint64_t hold);

  CostModel cost_;
  VirtualClock clock_;
  // Guards everything below; send() may take it on the SIGSEGV fault path.
  mutable std::mutex stats_mutex_;
  std::unordered_map<SpaceId, Port> ports_;  // node-based: clock_of() stays valid
  NetworkStats stats_;
  std::map<std::uint64_t, std::uint64_t> link_busy_;  // frame start -> end, ns
};

}  // namespace srpc
