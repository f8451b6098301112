#include "ids/sensor.hpp"

#include <algorithm>

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

std::string to_string(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kHang:
      return "hang";
    case RecoveryPolicy::kColdReboot:
      return "cold-reboot";
    case RecoveryPolicy::kAppRestart:
      return "app-restart";
  }
  return "?";
}

Sensor::Sensor(netsim::Simulator& sim, SensorConfig config)
    : sim_(sim),
      config_(std::move(config)),
      tele_offered_(
          telemetry::counter_handle(telemetry::names::kSensorOffered)),
      tele_dropped_(
          telemetry::counter_handle(telemetry::names::kSensorDropped)),
      tele_detections_(
          telemetry::counter_handle(telemetry::names::kSensorDetections)),
      tele_service_(
          telemetry::latency_handle(telemetry::names::kSensorService)) {
  if (!config_.telemetry_scope.empty()) {
    const std::string& scope = config_.telemetry_scope;
    scoped_offered_ =
        telemetry::counter_handle(telemetry::scoped_name(scope, "offered"));
    scoped_dropped_ =
        telemetry::counter_handle(telemetry::scoped_name(scope, "dropped"));
    scoped_detections_ = telemetry::counter_handle(
        telemetry::scoped_name(scope, "detections"));
    scoped_service_ =
        telemetry::latency_handle(telemetry::scoped_name(scope, "service"));
  }
}

void Sensor::set_signature_engine(std::unique_ptr<SignatureEngine> engine) {
  signature_ = std::move(engine);
  if (signature_) {
    signature_->set_scan_cache(config_.scan_cache);
    signature_->reserve_scan_cache(config_.scan_cache_capacity);
  }
}

void Sensor::set_anomaly_engine(std::unique_ptr<AnomalyEngine> engine) {
  anomaly_ = std::move(engine);
  if (anomaly_) {
    anomaly_->set_scan_cache(config_.scan_cache);
    anomaly_->reserve_scan_cache(config_.scan_cache_capacity);
  }
}

void Sensor::set_sensitivity(double s) noexcept {
  if (signature_) signature_->set_sensitivity(s);
  if (anomaly_) anomaly_->set_sensitivity(s);
}

SimTime Sensor::backlog() const noexcept {
  const SimTime now = sim_.now();
  return busy_until_ > now ? busy_until_ - now : SimTime::zero();
}

void Sensor::reset_stats() noexcept {
  stats_ = SensorStats{};
  telemetry::reset(tele_offered_);
  telemetry::reset(tele_dropped_);
  telemetry::reset(tele_detections_);
  telemetry::reset(tele_service_);
  telemetry::reset(scoped_offered_);
  telemetry::reset(scoped_dropped_);
  telemetry::reset(scoped_detections_);
  telemetry::reset(scoped_service_);
}

void Sensor::enqueue_service(const Packet& packet, double ops) {
  const SimTime service =
      SimTime::from_sec(ops / std::max(1.0, config_.ops_per_sec));
  const SimTime start = std::max(sim_.now(), busy_until_);
  busy_until_ = start + service;
  ++queued_;
  // Ingest-to-detection-ready latency: the engines run at completion
  // time, so queue wait + service is exactly how long detection lags
  // the packet's arrival at this sensor.
  telemetry::record(tele_service_, (busy_until_ - sim_.now()).sec());
  telemetry::record(scoped_service_, (busy_until_ - sim_.now()).sec());

  sim_.schedule_at(busy_until_,
                   [this, packet = packet] { complete(packet); });
}

void Sensor::ingest_batch(const Packet* packets, std::size_t count) {
  stats_.offered += count;
  telemetry::bump(tele_offered_, count);
  telemetry::bump(scoped_offered_, count);

  std::uint64_t dropped = 0;
  double host_ops = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Packet& packet = packets[i];
    if (failed_) {
      // A mid-batch failure (capacity trip below) drops the remainder of
      // the batch.
      ++stats_.dropped_failed;
      ++dropped;
      continue;
    }
    if (queued_ >= config_.queue_capacity) {
      ++stats_.dropped_queue;
      ++dropped;
      // Persistent tail-dropping with a saturated backlog is the overload
      // condition that can kill the sensor outright ("network lethal
      // dose").
      if (backlog() > config_.overload_tolerance) fail_now();
      continue;
    }
    double ops = config_.base_ops_per_packet;
    if (signature_) ops += signature_->scan_cost_ops(packet);
    if (anomaly_) ops += anomaly_->scan_cost_ops(packet);
    host_ops += ops;
    enqueue_service(packet, ops);
  }
  if (dropped != 0) {
    telemetry::bump(tele_dropped_, dropped);
    telemetry::bump(scoped_dropped_, dropped);
  }
  // One accumulated charge instead of per-packet host bookkeeping.
  if (host_ != nullptr && host_ops != 0.0) {
    host_->charge_ops(host_ops, /*ids_work=*/true);
  }
}

void Sensor::complete(const Packet& packet) {
  --queued_;
  if (failed_) {
    // Work in flight when the sensor died is lost.
    ++stats_.dropped_failed;
    telemetry::bump(tele_dropped_);
    telemetry::bump(scoped_dropped_);
    return;
  }
  ++stats_.processed;

  std::vector<Detection> detections;
  if (signature_) signature_->process(packet, sim_.now(), detections);
  if (anomaly_) anomaly_->process(packet, sim_.now(), detections);

  stats_.detections += detections.size();
  telemetry::bump(tele_detections_, detections.size());
  telemetry::bump(scoped_detections_, detections.size());
  if (on_detections_ && !detections.empty()) {
    on_detections_(detections.data(), detections.size());
  }
}

void Sensor::fail_now() {
  if (failed_) return;
  failed_ = true;
  ++stats_.failures;
  if (on_failure_ && config_.recovery == RecoveryPolicy::kAppRestart) {
    // High-score behaviour: the failure itself is reported in near real
    // time through the normal notification channel.
    on_failure_(config_.name, sim_.now(), /*failed=*/true);
  }

  if (config_.recovery == RecoveryPolicy::kHang) {
    down_until_ = SimTime::max();
    return;  // Low score: down for the remainder of the run.
  }
  const SimTime delay = config_.recovery == RecoveryPolicy::kColdReboot
                            ? config_.reboot_delay
                            : config_.restart_delay;
  down_until_ = sim_.now() + delay;
  sim_.schedule_in(delay, [this] {
    failed_ = false;
    busy_until_ = sim_.now();
    // A cold reboot loses all learned/windowed state.
    if (config_.recovery == RecoveryPolicy::kColdReboot) {
      if (signature_) signature_->reset_state();
      if (anomaly_) anomaly_->reset_windows();
    }
    if (on_failure_) on_failure_(config_.name, sim_.now(), /*failed=*/false);
  });
}

}  // namespace idseval::ids
