#include "netsim/stream.hpp"

#include <algorithm>

namespace idseval::netsim {

StreamTracker::StreamTracker(SimTime idle_timeout)
    : idle_timeout_(idle_timeout) {}

const StreamInfo& StreamTracker::observe(const Packet& packet) {
  const FlowTuple key = FlowTuple::from(packet.tuple).canonical();
  auto [slot, inserted] = streams_.try_emplace(key);
  StreamInfo& info = *slot;
  if (inserted) {
    info.key = key.to_five_tuple();
    info.first_seen = packet.created;
    info.state = packet.flags.syn ? StreamState::kSynSeen
                                  : StreamState::kEstablished;
    ++total_seen_;
    peak_ = std::max(peak_, streams_.size());
  }
  info.last_seen = packet.created;
  ++info.packets;
  info.bytes += packet.wire_bytes();

  // Coarse state machine: SYN -> (ACK) established -> FIN closing -> RST/2nd
  // FIN closed. Precise TCP reassembly is unnecessary for the metrics.
  if (packet.flags.rst) {
    info.state = StreamState::kClosed;
  } else if (packet.flags.fin) {
    info.state = info.state == StreamState::kClosing ? StreamState::kClosed
                                                     : StreamState::kClosing;
  } else if (packet.flags.ack && info.state == StreamState::kSynSeen) {
    info.state = StreamState::kEstablished;
  }
  return info;
}

void StreamTracker::expire(SimTime now) {
  dead_.clear();
  streams_.for_each([&](const FlowTuple& key, const StreamInfo& info) {
    const bool idle = now - info.last_seen > idle_timeout_;
    if (idle || info.state == StreamState::kClosed) dead_.push_back(key);
  });
  for (const FlowTuple& key : dead_) streams_.erase(key);
}

const StreamInfo* StreamTracker::find(const FiveTuple& tuple) const {
  return streams_.find(FlowTuple::from(tuple).canonical());
}

}  // namespace idseval::netsim
