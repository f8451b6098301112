// Pipeline assembly: wires the five subprocesses of Figure 1 with the
// relational cardinalities of Figure 2 (LB 1c:M sensors, sensors M:M
// analyzers, analyzers M:1 monitor, monitor 1:1c console, console 1c:M
// components) and attaches the result to a simulated network, either
// passively (SPAN mirror) or in-line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ids/analyzer.hpp"
#include "ids/console.hpp"
#include "ids/host_agent.hpp"
#include "ids/load_balancer.hpp"
#include "ids/monitor.hpp"
#include "ids/rules.hpp"
#include "ids/sensor.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace idseval::ids {

/// Data-pool selection (Table 2's Data Pool Selectability): restricts
/// which traffic the IDS analyzes. §3.2: a cluster operator may exclude
/// the tuned intra-cluster protocols to spend sensor capacity on
/// everything else — buying throughput at the price of blindness inside
/// the excluded pool.
struct TapFilter {
  /// Destination ports never analyzed (empty = analyze all ports).
  std::vector<std::uint16_t> exclude_dst_ports;
  /// When non-empty, ONLY these protocols are analyzed.
  std::vector<netsim::Protocol> include_protocols;
  /// Skip traffic between internal hosts (trusted-enclave shortcut).
  bool exclude_internal_to_internal = false;
  netsim::Ipv4 internal_net{10, 0, 0, 0};
  int internal_prefix = 8;

  bool selects(const netsim::Packet& packet) const;
  bool empty() const noexcept {
    return exclude_dst_ports.empty() && include_protocols.empty() &&
           !exclude_internal_to_internal;
  }
};

struct PipelineConfig {
  std::string product = "ids";
  TapFilter tap_filter;

  // --- Load balancing (subprocess 1, optional) ---------------------------
  bool use_load_balancer = false;
  LoadBalancerConfig lb;

  // --- Network sensing (subprocess 2) ------------------------------------
  std::size_t sensor_count = 1;       ///< 0 for purely host-based IDSs.
  SensorConfig sensor;
  bool signature_engine = true;
  /// Signature engines perform per-flow stream reassembly (catches
  /// boundary-split patterns at extra CPU/memory cost).
  bool stream_reassembly = false;
  bool anomaly_engine = false;
  RuleSet rules;                      ///< Used when signature_engine.
  AnomalyEngineOptions anomaly;       ///< Used when anomaly_engine.

  // --- Host agents (host-based / hybrid monitoring scope, §2.1) ----------
  bool use_host_agents = false;
  HostAgentConfig agent;
  SensorConfig agent_sensor;          ///< Template for agent inner sensors.

  // --- Analysis (subprocess 3) --------------------------------------------
  std::size_t analyzer_count = 1;
  AnalyzerConfig analyzer;

  // --- Monitoring (subprocess 4) ------------------------------------------
  MonitorConfig monitor;

  // --- Managing (subprocess 5, optional) ----------------------------------
  bool use_console = true;
  ConsoleConfig console;

  double sensitivity = 0.5;
};

/// Aggregated pipeline statistics for the measurement harness.
struct PipelineTotals {
  std::uint64_t packets_tapped = 0;
  std::uint64_t packets_filtered = 0;  ///< Excluded by the data pool.
  /// Combined across network sensors and host agents.
  std::uint64_t sensor_offered = 0;
  std::uint64_t sensor_processed = 0;
  std::uint64_t sensor_dropped = 0;
  /// Network-sensor path only (a host agent re-observes packets the
  /// network path already counted, so combined rates double-count on
  /// hybrid products).
  std::uint64_t network_processed = 0;
  std::uint64_t agent_processed = 0;
  std::uint64_t lb_dropped = 0;
  std::uint64_t detections = 0;
  std::uint64_t alerts = 0;
  std::uint64_t sensor_failures = 0;   ///< Failure events this window.
  std::uint64_t sensors_down = 0;       ///< Sensors currently failed.

  double ids_loss_ratio() const noexcept {
    return sensor_offered == 0
               ? 0.0
               : static_cast<double>(sensor_dropped + lb_dropped) /
                     static_cast<double>(sensor_offered + lb_dropped);
  }
};

class Pipeline {
 public:
  Pipeline(netsim::Simulator& sim, netsim::Network& net,
           PipelineConfig config);

  /// Validates Figure 2's cardinality constraints; returns human-readable
  /// violations (empty == valid). Called by the constructor, which throws
  /// on violations; also usable standalone for tests.
  static std::vector<std::string> validate(const PipelineConfig& config);

  /// Attaches network sensing to the LAN switch (mirror or in-line per
  /// lb.in_line) and host agents to the given hosts.
  void attach(const std::vector<netsim::Ipv4>& agent_hosts = {});

  /// Anomaly engines learn during warmup, then switch to detecting.
  void set_learning(bool learning);
  void set_sensitivity(double sensitivity);
  /// Forwards a pre-gate evidence observer to every engine — network
  /// sensors and host agents alike (nullptr detaches). Off by default;
  /// attaching it never changes detection output.
  void set_evidence_sink(EvidenceSink* sink);
  double sensitivity() const noexcept { return config_.sensitivity; }

  Monitor& monitor() noexcept { return *monitor_; }
  const Monitor& monitor() const noexcept { return *monitor_; }
  ManagementConsole* console() noexcept { return console_.get(); }
  LoadBalancer* load_balancer() noexcept { return lb_.get(); }
  const std::vector<std::unique_ptr<Sensor>>& sensors() const noexcept {
    return sensors_;
  }
  const std::vector<std::unique_ptr<Analyzer>>& analyzers() const noexcept {
    return analyzers_;
  }
  const std::vector<std::unique_ptr<HostAgent>>& agents() const noexcept {
    return agents_;
  }
  const PipelineConfig& config() const noexcept { return config_; }

  PipelineTotals totals() const;
  /// Clears run counters (not learned state) between measurement phases.
  void reset_counters();

 private:
  /// The tap, wired only when network sensors exist: splits a same-tick
  /// mirror batch (an in-line packet is a batch of one) into contiguous
  /// single-sink runs and ingests each run as one sub-batch; tapped /
  /// filtered bumps are hoisted to once per batch.
  void feed_batch(const netsim::Packet* packets, std::size_t count);
  std::size_t sensor_index_for(const netsim::Packet& packet) const;
  Analyzer& analyzer_for(std::size_t source_index);

  netsim::Simulator& sim_;
  netsim::Network& net_;
  PipelineConfig config_;

  std::unique_ptr<LoadBalancer> lb_;
  std::vector<std::unique_ptr<Sensor>> sensors_;
  std::vector<std::unique_ptr<HostAgent>> agents_;
  std::vector<std::unique_ptr<Analyzer>> analyzers_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<ManagementConsole> console_;

  std::uint64_t packets_tapped_ = 0;
  std::uint64_t packets_filtered_ = 0;
  bool attached_ = false;
  /// Cached config_.monitor.evict_on_flow_end: checked per tapped packet.
  bool monitor_evicts_ = false;
  telemetry::Counter* tele_tapped_;
  telemetry::Counter* tele_filtered_;
};

}  // namespace idseval::ids
