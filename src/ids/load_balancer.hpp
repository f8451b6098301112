// Load-balancing subprocess (§2.2, subprocess 1 — optional, 1c:M). Four
// strategies spanning the paper's Scalable Load-balancing metric anchors:
// none (low score), static placement (average), flow hash and dynamic
// least-load (high: "intelligent, dynamic"). TCP-session awareness is
// mandatory for correctness: a session split across sensors defeats
// stream-context rules, so every strategy here pins a flow to one sensor.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/flow_table.hpp"

namespace idseval::ids {

class Sensor;

enum class LbStrategy : std::uint8_t {
  kNone,          ///< Everything to sensor 0.
  kStaticByHost,  ///< Sensor chosen by destination subnet (placement).
  kFlowHash,      ///< Uniform hash over the canonical five-tuple.
  kLeastLoaded,   ///< Dynamic: new flows go to the shortest queue.
};

std::string to_string(LbStrategy s);

struct LoadBalancerConfig {
  std::string name = "lb";
  LbStrategy strategy = LbStrategy::kFlowHash;
  /// Abstract ops per packet (tuple hash, table lookup, forwarding).
  double ops_per_packet = 1500.0;
  double ops_per_sec = 2e9;
  std::size_t queue_capacity = 8192;
  /// In-line deployment delays *production* traffic; mirrored deployment
  /// only delays the IDS's own copy (§2.2's induced latency discussion).
  bool in_line = false;
  /// Store-and-forward + lookup delay added to every production packet
  /// when deployed in-line.
  netsim::SimTime inline_latency = netsim::SimTime::from_us(80);
};

struct LoadBalancerStats {
  std::uint64_t offered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t pin_evictions = 0;  ///< Flow pins released on FIN/RST.
  std::vector<std::uint64_t> per_sensor;  ///< Forwarded per sensor index.

  double imbalance() const;  ///< max/mean of per-sensor counts (1 = even).
};

class LoadBalancer {
 public:
  using ForwardFn = std::function<void(std::size_t sensor_index,
                                       const netsim::Packet& packet)>;

  LoadBalancer(netsim::Simulator& sim, LoadBalancerConfig config,
               std::size_t sensor_count);

  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }
  /// Required for kLeastLoaded (queries live sensor queue depths).
  void set_sensors(std::vector<Sensor*> sensors) {
    sensors_ = std::move(sensors);
  }

  /// Ingests a same-tick batch in order (a single packet is a batch of
  /// one); offered/dropped stats and telemetry bumps are hoisted to once
  /// per batch.
  void ingest_batch(const netsim::Packet* packets, std::size_t count);

  /// Service time for one packet — also the latency an in-line deployment
  /// adds to production traffic.
  netsim::SimTime service_time() const noexcept;

  const LoadBalancerConfig& config() const noexcept { return config_; }
  const LoadBalancerStats& stats() const noexcept { return stats_; }
  std::size_t sensor_count() const noexcept { return sensor_count_; }
  /// Live kLeastLoaded session pins (flows seen but not yet FIN/RST).
  std::size_t pins_live() const noexcept { return flow_pin_.size(); }
  void reset_stats();

 private:
  std::size_t route(const netsim::Packet& packet);
  void enqueue_service(const netsim::Packet& packet);

  netsim::Simulator& sim_;
  LoadBalancerConfig config_;
  std::size_t sensor_count_;
  ForwardFn forward_;
  std::vector<Sensor*> sensors_;
  LoadBalancerStats stats_;
  netsim::SimTime busy_until_;
  std::size_t queued_ = 0;
  /// kLeastLoaded session pins. Entries are erased when the flow's
  /// FIN/RST packet routes, so the table tracks *live* flows instead of
  /// every flow ever seen (it previously grew without bound).
  util::FlowTable<std::uint64_t, std::uint32_t> flow_pin_;
  telemetry::Counter* tele_offered_;
  telemetry::Counter* tele_dropped_;
  telemetry::Counter* tele_pin_evictions_;
  telemetry::LatencyStat* tele_queue_wait_;
};

}  // namespace idseval::ids
