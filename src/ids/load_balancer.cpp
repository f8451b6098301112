#include "ids/load_balancer.hpp"

#include <algorithm>

#include "ids/sensor.hpp"

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

std::string to_string(LbStrategy s) {
  switch (s) {
    case LbStrategy::kNone:
      return "none";
    case LbStrategy::kStaticByHost:
      return "static-by-host";
    case LbStrategy::kFlowHash:
      return "flow-hash";
    case LbStrategy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

double LoadBalancerStats::imbalance() const {
  if (per_sensor.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const auto c : per_sensor) {
    total += c;
    peak = std::max(peak, c);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(per_sensor.size());
  return static_cast<double>(peak) / mean;
}

LoadBalancer::LoadBalancer(netsim::Simulator& sim, LoadBalancerConfig config,
                           std::size_t sensor_count)
    : sim_(sim),
      config_(std::move(config)),
      sensor_count_(std::max<std::size_t>(1, sensor_count)),
      tele_offered_(telemetry::counter_handle(telemetry::names::kLbOffered)),
      tele_dropped_(telemetry::counter_handle(telemetry::names::kLbDropped)),
      tele_pin_evictions_(
          telemetry::counter_handle(telemetry::names::kLbPinEvictions)),
      tele_queue_wait_(
          telemetry::latency_handle(telemetry::names::kLbQueueWait)) {
  stats_.per_sensor.assign(sensor_count_, 0);
  telemetry::bind_flow_table(flow_pin_);
}

SimTime LoadBalancer::service_time() const noexcept {
  return SimTime::from_sec(config_.ops_per_packet /
                           std::max(1.0, config_.ops_per_sec));
}

std::size_t LoadBalancer::route(const Packet& packet) {
  switch (config_.strategy) {
    case LbStrategy::kNone:
      return 0;
    case LbStrategy::kStaticByHost:
      // Placement by destination host: uneven when traffic concentrates
      // on a few servers — exactly the "individual, statically placed
      // sensors may overload or starve" failure mode (§2.2).
      return packet.tuple.dst_ip.value() % sensor_count_;
    case LbStrategy::kFlowHash: {
      const netsim::FiveTuple canon = packet.tuple.canonical();
      return netsim::FiveTupleHash{}(canon) % sensor_count_;
    }
    case LbStrategy::kLeastLoaded: {
      // Session-consistent: a pinned flow stays put; new flows go to the
      // sensor with the shortest queue right now. The pin is released
      // once the flow ends so long runs don't accumulate dead entries.
      const bool flow_end = packet.flags.fin || packet.flags.rst;
      if (const std::uint32_t* pinned = flow_pin_.find(packet.flow_id)) {
        const std::size_t idx = *pinned;
        if (flow_end) {
          flow_pin_.erase(packet.flow_id);
          ++stats_.pin_evictions;
          telemetry::bump(tele_pin_evictions_);
        }
        return idx;
      }
      std::size_t best = 0;
      std::size_t best_depth = SIZE_MAX;
      for (std::size_t i = 0; i < sensors_.size(); ++i) {
        const std::size_t depth = sensors_[i]->queue_depth();
        if (depth < best_depth) {
          best_depth = depth;
          best = i;
        }
      }
      // A flow whose first routed packet already carries FIN/RST is over;
      // pinning it would leak an entry no later packet can release.
      if (!flow_end) {
        flow_pin_.try_emplace(packet.flow_id,
                              static_cast<std::uint32_t>(best));
      }
      return best;
    }
  }
  return 0;
}

void LoadBalancer::enqueue_service(const Packet& packet) {
  ++queued_;
  const SimTime start = std::max(sim_.now(), busy_until_);
  // Queue wait: how long the packet sits behind earlier work before its
  // own service slot starts.
  telemetry::record(tele_queue_wait_, (start - sim_.now()).sec());
  busy_until_ = start + service_time();
  sim_.schedule_at(busy_until_, [this, packet = packet] {
    --queued_;
    const std::size_t idx = route(packet);
    ++stats_.forwarded;
    ++stats_.per_sensor[idx];
    if (forward_) forward_(idx, packet);
  });
}

void LoadBalancer::ingest_batch(const Packet* packets, std::size_t count) {
  stats_.offered += count;
  telemetry::bump(tele_offered_, count);
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (queued_ >= config_.queue_capacity) {
      ++dropped;
      continue;
    }
    enqueue_service(packets[i]);
  }
  if (dropped != 0) {
    stats_.dropped += dropped;
    telemetry::bump(tele_dropped_, dropped);
  }
}

void LoadBalancer::reset_stats() {
  stats_ = LoadBalancerStats{};
  stats_.per_sensor.assign(sensor_count_, 0);
  telemetry::reset(tele_offered_);
  telemetry::reset(tele_dropped_);
  telemetry::reset(tele_pin_evictions_);
  telemetry::reset(tele_queue_wait_);
}

}  // namespace idseval::ids
