// Sensing subprocess (§2.2, subprocess 2): separates suspicious from
// normal traffic. The sensor is where the pipeline's real-time character
// lives — it has finite service capacity, a bounded input queue (tail
// drop), and an explicit failure/recovery model. Those three mechanisms
// generate the paper's load-dependent Table 3 metrics: Maximal Throughput
// with Zero Loss (queue never drops), Network Lethal Dose (sustained
// overload trips failure), and Error Reporting and Recovery (what happens
// after it trips).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ids/alert.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/signature_engine.hpp"
#include "netsim/host.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace idseval::ids {

/// Behaviour after a fatal overload — the anchors of the paper's "Error
/// Reporting and Recovery" metric (low: hang indefinitely; average: cold
/// reboot of the machine; high: restart just the service, report via the
/// normal alert channel).
enum class RecoveryPolicy : std::uint8_t {
  kHang,        ///< Low score: failure is silent and permanent.
  kColdReboot,  ///< Average: back after a long reboot, state lost.
  kAppRestart,  ///< High: quick service restart, failure is reported.
};

std::string to_string(RecoveryPolicy p);

struct SensorConfig {
  std::string name = "sensor";
  /// Fixed per-packet service cost in abstract ops (header handling,
  /// dispatch). Engine scan costs are added on top.
  double base_ops_per_packet = 4000.0;
  /// Ops/second the sensor's processor executes; service time =
  /// total ops / ops_per_sec.
  double ops_per_sec = 4e8;
  std::size_t queue_capacity = 2048;
  /// Backlog (queue wait) that counts as fatal overload.
  netsim::SimTime overload_tolerance = netsim::SimTime::from_ms(500);
  RecoveryPolicy recovery = RecoveryPolicy::kAppRestart;
  netsim::SimTime reboot_delay = netsim::SimTime::from_sec(45);
  netsim::SimTime restart_delay = netsim::SimTime::from_sec(2);
  /// Interned-payload scan cache (ids/scan_cache.hpp) force-off switch:
  /// applied to every engine attached to this sensor. Detection output
  /// and the golden determinism hash are byte-identical either way —
  /// false replays the exact legacy full-rescan path (--no-scan-cache).
  bool scan_cache = true;
  /// Raises each attached engine's scan-memo capacity ceiling above the
  /// PayloadMemo default (0 = leave the default). The harness sets it to
  /// default + PayloadPool::growth_headroom() when adaptive variant
  /// growth is enabled, so grown variants stay cached.
  std::size_t scan_cache_capacity = 0;
  /// When set (e.g. "sensor.0"), the sensor additionally bumps
  /// per-instance stage counters/latencies ("sensor.0.offered", ...)
  /// beside the aggregate sensor.* names, so overload profiles can
  /// localize which sensor saturates first.
  std::string telemetry_scope;
};

struct SensorStats {
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped_queue = 0;   ///< Tail drops while healthy.
  std::uint64_t dropped_failed = 0;  ///< Lost while the sensor was down.
  std::uint64_t detections = 0;
  std::uint64_t failures = 0;        ///< Overload events tripped.

  double loss_ratio() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped_queue +
                                              dropped_failed) /
                              static_cast<double>(offered);
  }
};

class Sensor {
 public:
  /// Detection sink: every detection one packet produced, in engine
  /// order (never called with an empty batch).
  using DetectionFn = std::function<void(const Detection*, std::size_t)>;
  /// Invoked when the sensor fails / recovers (Error Reporting metric:
  /// only kAppRestart reports through this channel in real time).
  using FailureFn = std::function<void(const std::string& sensor,
                                       netsim::SimTime when, bool failed)>;

  Sensor(netsim::Simulator& sim, SensorConfig config);

  /// Optional engines; a hybrid sensor owns both (§2.1).
  void set_signature_engine(std::unique_ptr<SignatureEngine> engine);
  void set_anomaly_engine(std::unique_ptr<AnomalyEngine> engine);
  SignatureEngine* signature_engine() noexcept { return signature_.get(); }
  AnomalyEngine* anomaly_engine() noexcept { return anomaly_.get(); }

  /// Runs the sensor's cycles on a production host's CPU instead of a
  /// dedicated box (host-based deployment, §2.1's resource-overhead
  /// discussion). Ops are charged to the host as IDS work.
  void bind_host(netsim::Host* host) noexcept { host_ = host; }

  void set_on_detections(DetectionFn fn) { on_detections_ = std::move(fn); }
  void set_on_failure(FailureFn fn) { on_failure_ = std::move(fn); }

  /// Ingests a same-tick batch at simulation time `now`, in order (a
  /// single packet is a batch of one); stats/telemetry bumps and host op
  /// charges are hoisted to once per batch.
  void ingest_batch(const netsim::Packet* packets, std::size_t count);

  void set_sensitivity(double s) noexcept;

  /// Forwards a pre-gate evidence observer to both engines (nullptr
  /// detaches). Observational only — no effect on detection output.
  void set_evidence_sink(EvidenceSink* sink) noexcept {
    if (signature_) signature_->set_evidence_sink(sink);
    if (anomaly_) anomaly_->set_evidence_sink(sink);
  }

  const SensorConfig& config() const noexcept { return config_; }
  const SensorStats& stats() const noexcept { return stats_; }
  bool failed() const noexcept { return failed_; }
  /// While failed(): when the scheduled recovery brings the sensor back
  /// (SimTime::max() under RecoveryPolicy::kHang, which never recovers).
  netsim::SimTime down_until() const noexcept { return down_until_; }
  std::size_t queue_depth() const noexcept { return queued_; }
  /// Current backlog: how far busy_until_ lies beyond now.
  netsim::SimTime backlog() const noexcept;
  void reset_stats() noexcept;

 private:
  void enqueue_service(const netsim::Packet& packet, double ops);
  void complete(const netsim::Packet& packet);
  void fail_now();

  netsim::Simulator& sim_;
  SensorConfig config_;
  std::unique_ptr<SignatureEngine> signature_;
  std::unique_ptr<AnomalyEngine> anomaly_;
  netsim::Host* host_ = nullptr;

  DetectionFn on_detections_;
  FailureFn on_failure_;

  SensorStats stats_;
  std::size_t queued_ = 0;
  netsim::SimTime busy_until_;
  bool failed_ = false;
  netsim::SimTime down_until_;
  telemetry::Counter* tele_offered_;
  telemetry::Counter* tele_dropped_;
  telemetry::Counter* tele_detections_;
  telemetry::LatencyStat* tele_service_;
  // Per-instance handles (null unless config_.telemetry_scope is set).
  telemetry::Counter* scoped_offered_ = nullptr;
  telemetry::Counter* scoped_dropped_ = nullptr;
  telemetry::Counter* scoped_detections_ = nullptr;
  telemetry::LatencyStat* scoped_service_ = nullptr;
};

}  // namespace idseval::ids
