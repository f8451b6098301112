#include "ids/host_agent.hpp"

#include <algorithm>

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

std::string to_string(LoggingLevel level) {
  switch (level) {
    case LoggingLevel::kNone:
      return "none";
    case LoggingLevel::kNominal:
      return "nominal";
    case LoggingLevel::kC2Audit:
      return "c2-audit";
  }
  return "?";
}

double logging_ops_per_packet(LoggingLevel level) noexcept {
  // Calibrated against §2.1: at ~1000 pps on a 1e9 ops/s host, nominal
  // logging lands near 4% and C2 auditing near 20%.
  switch (level) {
    case LoggingLevel::kNone:
      return 0.0;
    case LoggingLevel::kNominal:
      return 40'000.0;
    case LoggingLevel::kC2Audit:
      return 200'000.0;
  }
  return 0.0;
}

HostAgent::HostAgent(netsim::Simulator& sim, netsim::Network& net,
                     netsim::Host& host, HostAgentConfig config,
                     SensorConfig sensor_template)
    : sim_(sim), net_(net), host_(host), config_(std::move(config)) {
  SensorConfig sc = std::move(sensor_template);
  sc.name = config_.name;
  // The agent analyzes with a bounded share of the host CPU.
  sc.ops_per_sec = host.cpu_ops_per_sec() * config_.cpu_share;
  sensor_ = std::make_unique<Sensor>(sim_, sc);
  sensor_->bind_host(&host_);
}

void HostAgent::set_signature_engine(
    std::unique_ptr<SignatureEngine> engine) {
  sensor_->set_signature_engine(std::move(engine));
}

void HostAgent::set_anomaly_engine(std::unique_ptr<AnomalyEngine> engine) {
  sensor_->set_anomaly_engine(std::move(engine));
}

void HostAgent::set_on_detection(DetectionFn fn) {
  on_detection_ = std::move(fn);
  sensor_->set_on_detections([this](const Detection* ds, std::size_t n) {
    // Each finding leaves the host now but reaches the analyzer tier only
    // after the report transit delay; the hand-off always lands on the
    // hub clock (where analyzers, monitor, and the management network
    // live), via the engine mailboxes when the agent's shard is remote.
    // Init-capture: plain [this, d] would give the closure a `const
    // Detection` member (d is a const reference), demoting its move
    // constructor to a throwing string copy and spilling the callback
    // off the inline buffer.
    const SimTime arrive = sim_.now() + config_.report_latency;
    for (std::size_t i = 0; i < n; ++i) {
      const Detection& d = ds[i];
      if (engine_ != nullptr && shard_ != 0) {
        engine_->post(shard_, 0, arrive, lane_,
                      [this, d = Detection(d)] { deliver_report(d); });
      } else {
        net_.sim().schedule_at_lane(
            arrive, lane_, [this, d = Detection(d)] { deliver_report(d); });
      }
    }
  });
}

void HostAgent::deliver_report(const Detection& d) {
  if (config_.report_over_network &&
      host_.address() != config_.report_sink) {
    // A real report packet: multi-host IDSs consume network bandwidth
    // by transmitting logging information (§2.1). Ids and timestamps
    // come from the hub simulator, which is the one this code runs on.
    netsim::FiveTuple tuple;
    tuple.src_ip = host_.address();
    tuple.dst_ip = config_.report_sink;
    tuple.src_port = kMgmtPort;
    tuple.dst_port = kMgmtPort;
    tuple.proto = netsim::Protocol::kTcp;
    netsim::Simulator& hub = net_.sim();
    Packet report = netsim::make_packet(
        hub.next_packet_id(), /*flow_id=*/0, hub.now(), tuple,
        std::string(config_.report_bytes, 'r'));
    net_.send(report);
    ++reports_sent_;
  }
  if (on_detection_) on_detection_(d);
}

void HostAgent::attach() {
  if (attached_) return;
  attached_ = true;
  host_.add_receiver_batch([this](const Packet* packets, std::size_t n) {
    observe_batch(packets, n);
  });
}

void HostAgent::observe_batch(const Packet* packets, std::size_t count) {
  const auto is_mgmt = [](const Packet& p) {
    return p.tuple.dst_port == kMgmtPort;  // never self-analyze
  };
  if (std::any_of(packets, packets + count, is_mgmt)) {
    for (std::size_t i = 0; i < count; ++i) {
      if (!is_mgmt(packets[i])) observe_batch(packets + i, 1);
    }
    return;
  }
  // Logging happens for every delivered packet regardless of analysis.
  const double log_ops = logging_ops_per_packet(config_.logging);
  if (log_ops > 0.0) {
    host_.charge_ops(log_ops * static_cast<double>(count),
                     /*ids_work=*/true);
  }
  sensor_->ingest_batch(packets, count);
}

}  // namespace idseval::ids
