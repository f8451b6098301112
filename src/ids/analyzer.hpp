// Analysis subprocess (§2.2, subprocess 3): determines the nature and
// threat of suspicious traffic. Performs primary analysis (severity) and
// second-order correlation (scope/intent: multiple detections on one flow
// or one offender merge and escalate). Stores historical context — the
// paper's Data Storage metric is the growth rate of that store.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "ids/alert.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace idseval::ids {

struct AnalyzerConfig {
  std::string name = "analyzer";
  /// Abstract ops per detection analyzed (service-time model).
  double ops_per_detection = 50000.0;
  double ops_per_sec = 2e8;
  /// Extra hop delay when sensing and analysis are separated onto
  /// different boxes (§2.2: "separation adds network overhead").
  netsim::SimTime transfer_delay = netsim::SimTime::zero();
  /// Detections on the same flow within this window merge into one
  /// threat; repeated offender activity escalates severity.
  netsim::SimTime correlation_window = netsim::SimTime::from_sec(10);
  /// Escalate severity when an offender accumulates this many distinct
  /// rules in the window (threat correlation capability).
  int escalation_rule_count = 3;
  /// Bytes of historical context retained per detection (Data Storage).
  std::size_t bytes_per_detection = 512;
};

struct AnalyzerStats {
  std::uint64_t detections_in = 0;
  std::uint64_t reports_out = 0;
  std::uint64_t merged = 0;
  std::uint64_t escalations = 0;
  std::uint64_t bytes_stored = 0;
};

class Analyzer {
 public:
  using ReportFn = std::function<void(const ThreatReport&)>;

  Analyzer(netsim::Simulator& sim, AnalyzerConfig config);

  void set_on_report(ReportFn fn) { on_report_ = std::move(fn); }

  /// Receives every detection one sensor completion produced (already
  /// timestamped by it), in engine order; a lone detection is a batch of
  /// one. The detections_in bump is hoisted to once per batch.
  void submit_batch(const Detection* detections, std::size_t count);

  const AnalyzerConfig& config() const noexcept { return config_; }
  const AnalyzerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept {
    stats_ = AnalyzerStats{};
    telemetry::reset(tele_reports_);
    telemetry::reset(tele_batch_);
  }

 private:
  void schedule_analysis(const Detection& detection);
  void analyze(const Detection& detection);

  struct FlowState {
    netsim::SimTime last_report;
    int count = 0;
  };
  struct OffenderState {
    std::deque<std::pair<netsim::SimTime, std::uint64_t>> rule_hits;
  };

  netsim::Simulator& sim_;
  AnalyzerConfig config_;
  ReportFn on_report_;
  AnalyzerStats stats_;
  netsim::SimTime busy_until_;
  std::unordered_map<std::uint64_t, FlowState> flows_;
  std::unordered_map<std::uint32_t, OffenderState> offenders_;
  telemetry::Counter* tele_reports_;
  telemetry::LatencyStat* tele_batch_;
};

}  // namespace idseval::ids
