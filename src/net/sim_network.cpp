#include "net/sim_network.hpp"

#include <algorithm>
#include <iterator>

#include "common/logging.hpp"

namespace srpc {

void SimNetwork::attach(SpaceId space, Mailbox* mailbox) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ports_[space].mailbox = mailbox;
}

VirtualClock& SimNetwork::clock_of(SpaceId space) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return ports_[space].clock;
}

std::uint64_t SimNetwork::reserve_link(std::uint64_t ready, std::uint64_t hold) {
  if (hold == 0) return ready;
  std::uint64_t start = ready;
  auto next = link_busy_.upper_bound(start);
  if (next != link_busy_.begin()) start = std::max(start, std::prev(next)->second);
  while (next != link_busy_.end() && next->first < start + hold) {
    start = std::max(start, next->second);
    ++next;
  }
  link_busy_.emplace(start, start + hold);
  if (link_busy_.size() > kLinkWindow) link_busy_.erase(link_busy_.begin());
  return start + hold;
}

Status SimNetwork::send(Message&& msg) {
  const std::uint64_t wire = msg.wire_size();
  Mailbox* mailbox = nullptr;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    auto it = ports_.find(msg.to);
    if (it == ports_.end() || it->second.mailbox == nullptr) {
      return not_found("send to unknown space " + std::to_string(msg.to));
    }
    mailbox = it->second.mailbox;
    // Sender CPU: XDR encode happens before anything hits the wire.
    VirtualClock& sender = ports_[msg.from].clock;
    sender.advance(wire * cost_.per_marshal_byte_ns);
    clock_.advance_to(sender.now());
    // Wire occupancy (shared medium, one frame at a time) and arrival edge.
    const std::uint64_t wire_done =
        reserve_link(sender.now(), wire * cost_.per_wire_byte_ns);
    msg.arrive_ns =
        wire_done + cost_.per_message_ns + wire * cost_.per_marshal_byte_ns;
    stats_.messages += 1;
    stats_.wire_bytes += wire;
    stats_.messages_by_type[static_cast<std::size_t>(msg.type)] += 1;
    stats_.bytes_by_type[static_cast<std::size_t>(msg.type)] += wire;
  }
  SRPC_DEBUG << "net: " << to_string(msg.type) << " " << msg.from << "->" << msg.to
             << " session=" << msg.session << " seq=" << msg.seq << " bytes=" << wire;
  return mailbox->push(std::move(msg));
}

NetworkStats SimNetwork::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SimNetwork::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = NetworkStats{};
  for (auto& [space, port] : ports_) port.clock.reset();
  link_busy_.clear();
}

}  // namespace srpc
