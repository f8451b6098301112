#include "netsim/link.hpp"

#include <algorithm>
#include <utility>

namespace idseval::netsim {

Link::Link(Simulator& sim, std::string name, double bandwidth_bps,
           SimTime latency, std::size_t queue_capacity_packets)
    : sim_(sim),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      latency_(latency),
      queue_capacity_(queue_capacity_packets) {}

SimTime Link::serialization_delay(std::uint32_t bytes) const noexcept {
  if (bandwidth_bps_ <= 0.0) return SimTime::zero();
  const double seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps_;
  return SimTime::from_sec(seconds);
}

void Link::release_elapsed_slots() noexcept {
  const SimTime now = sim_.now();
  while (!slot_release_.empty() && slot_release_.front() <= now) {
    slot_release_.pop_front();
    --queued_;
  }
}

std::size_t Link::queue_depth() const noexcept {
  const SimTime now = sim_.now();
  std::size_t released = 0;
  for (const SimTime t : slot_release_) {
    if (t > now) break;
    ++released;
  }
  return queued_ - released;
}

bool Link::send(const Packet& packet) {
  ++stats_.offered_packets;
  stats_.offered_bytes += packet.wire_bytes();

  release_elapsed_slots();
  if (queued_ >= queue_capacity_) {
    ++stats_.dropped_packets;
    return false;
  }
  ++queued_;

  // The transmitter serializes packets back to back; a packet begins
  // serialization when the line frees up, then propagates for latency_.
  const SimTime start = std::max(sim_.now(), busy_until_);
  const SimTime tx_done = start + serialization_delay(packet.wire_bytes());
  busy_until_ = tx_done;
  const SimTime arrival = tx_done + latency_;

  // The slot frees when serialization finishes (propagation does not hold
  // buffer space). No event is scheduled for it: the tx-done time queues
  // here and drains at the next depth observation.
  slot_release_.push_back(tx_done);

  // FIFO serialization + constant latency make arrivals monotone, so a
  // same-tick arrival always lands in the newest group and rides its
  // already-scheduled delivery event.
  in_flight_.push_back(packet);
  if (coalesce_ && !groups_.empty() && groups_.back().when == arrival) {
    ++groups_.back().count;
  } else {
    const bool was_idle = groups_.empty();
    groups_.push_back({arrival, 1});
    if (remote_flush_) {
      // Remote mode: groups accumulate until a barrier flush; announce
      // the empty -> non-empty transition so the engine tracks us dirty.
      if (was_idle && on_first_pending_) on_first_pending_();
    } else {
      sim_.schedule_at_lane(arrival, lane_, [this] { deliver_group(); });
    }
  }
  return true;
}

void Link::set_remote_flush(RemoteFlushFn fn,
                            std::function<void()> on_first_pending) {
  remote_flush_ = std::move(fn);
  on_first_pending_ = std::move(on_first_pending);
}

void Link::flush_remote(SimTime global_min) {
  const SimTime bound = global_min + latency_;
  while (!groups_.empty() && groups_.front().when < bound) {
    const DeliveryGroup group = groups_.front();
    groups_.pop_front();
    std::vector<Packet> batch;
    batch.reserve(group.count);
    for (std::uint32_t i = 0; i < group.count; ++i) {
      batch.push_back(std::move(in_flight_.front()));
      in_flight_.pop_front();
    }
    remote_flush_(group.when, std::move(batch));
  }
}

void Link::deliver_remote_batch(std::vector<Packet>& batch) {
  stats_.delivered_packets += batch.size();
  std::uint64_t bytes = 0;
  for (const Packet& p : batch) bytes += p.wire_bytes();
  stats_.delivered_bytes += bytes;
  if (deliver_) deliver_(batch.data(), batch.size());
}

void Link::deliver_group() {
  release_elapsed_slots();
  const DeliveryGroup group = groups_.front();
  groups_.pop_front();
  stats_.delivered_packets += group.count;
  // Move out before delivering: the deliver callback may re-enter send()
  // on this link and grow in_flight_.
  batch_scratch_.clear();
  std::uint64_t bytes = 0;
  for (std::uint32_t i = 0; i < group.count; ++i) {
    bytes += in_flight_.front().wire_bytes();
    batch_scratch_.push_back(std::move(in_flight_.front()));
    in_flight_.pop_front();
  }
  stats_.delivered_bytes += bytes;
  if (deliver_) deliver_(batch_scratch_.data(), batch_scratch_.size());
  batch_scratch_.clear();  // drop payload references promptly
}

}  // namespace idseval::netsim
