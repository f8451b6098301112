#include "ids/analyzer.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace idseval::ids {

using netsim::SimTime;

Analyzer::Analyzer(netsim::Simulator& sim, AnalyzerConfig config)
    : sim_(sim),
      config_(std::move(config)),
      tele_reports_(
          telemetry::counter_handle(telemetry::names::kAnalyzerReports)),
      tele_batch_(
          telemetry::latency_handle(telemetry::names::kAnalyzerBatch)) {}

void Analyzer::submit_batch(const Detection* detections, std::size_t count) {
  stats_.detections_in += count;
  for (std::size_t i = 0; i < count; ++i) schedule_analysis(detections[i]);
}

void Analyzer::schedule_analysis(const Detection& detection) {
  // Transfer (if remote) then queue behind earlier analysis work.
  const SimTime arrive = sim_.now() + config_.transfer_delay;
  const SimTime service = SimTime::from_sec(
      config_.ops_per_detection / std::max(1.0, config_.ops_per_sec));
  const SimTime start = std::max(arrive, busy_until_);
  busy_until_ = start + service;
  // Batch latency: detection hand-off to analysis completion (transfer
  // hop + queueing behind earlier detections + this service slot).
  telemetry::record(tele_batch_, (busy_until_ - sim_.now()).sec());
  // Init-capture so the stored copy is non-const: a plain [detection]
  // copy of a const& parameter makes the closure member const Detection,
  // whose "move" is a throwing string copy — which disqualifies the
  // closure from the simulator's inline callback buffer.
  sim_.schedule_at(busy_until_,
                   [this, detection = detection] { analyze(detection); });
}

void Analyzer::analyze(const Detection& detection) {
  stats_.bytes_stored += config_.bytes_per_detection;
  const SimTime now = sim_.now();

  // Flow-level dedup/merge: one threat per flow per correlation window.
  FlowState& flow = flows_[detection.flow_id];
  const bool merge = flow.count > 0 &&
                     now - flow.last_report <= config_.correlation_window;
  ++flow.count;
  if (merge) {
    ++stats_.merged;
    return;
  }
  flow.last_report = now;

  // Offender correlation: distinct rules from one source escalate.
  OffenderState& offender = offenders_[detection.tuple.src_ip.value()];
  const std::uint64_t rule_hash = util::hash64(detection.rule);
  offender.rule_hits.emplace_back(now, rule_hash);
  while (!offender.rule_hits.empty() &&
         now - offender.rule_hits.front().first >
             config_.correlation_window) {
    offender.rule_hits.pop_front();
  }
  int distinct_rules = 0;
  {
    std::vector<std::uint64_t> seen;
    for (const auto& [t, h] : offender.rule_hits) {
      if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
        seen.push_back(h);
      }
    }
    distinct_rules = static_cast<int>(seen.size());
  }

  ThreatReport report;
  report.primary = detection;
  report.correlated_count = flow.count;
  report.severity = detection.severity;
  report.when = now;
  if (distinct_rules >= config_.escalation_rule_count) {
    report.severity = std::min(5, report.severity + 1);
    ++stats_.escalations;
  }

  ++stats_.reports_out;
  telemetry::bump(tele_reports_);
  if (on_report_) on_report_(report);
}

}  // namespace idseval::ids
