#include <gtest/gtest.h>

#include <vector>

#include "ids/analyzer.hpp"
#include "ids/monitor.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::SimTime;

Detection detection(std::uint64_t flow, const std::string& rule,
                    int severity = 3,
                    Ipv4 src = Ipv4(198, 51, 100, 1)) {
  Detection d;
  d.flow_id = flow;
  d.tuple.src_ip = src;
  d.tuple.dst_ip = Ipv4(10, 0, 0, 2);
  d.rule = rule;
  d.confidence = 0.9;
  d.severity = severity;
  return d;
}

/// Hands `ds` to the analyzer as one batch of N, or as N batches of one;
/// the tests that submit several detections assert the same outcome
/// either way.
void submit_all(Analyzer& analyzer, const std::vector<Detection>& ds,
                bool one_batch = true) {
  if (one_batch) {
    analyzer.submit_batch(ds.data(), ds.size());
    return;
  }
  for (const Detection& d : ds) analyzer.submit_batch(&d, 1);
}

TEST(AnalyzerTest, EmitsReportPerFlow) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    Analyzer analyzer(sim, AnalyzerConfig{});
    std::vector<ThreatReport> reports;
    analyzer.set_on_report([&](const ThreatReport& r) {
      reports.push_back(r);
    });
    submit_all(analyzer, {detection(1, "rule-a"), detection(2, "rule-b")},
               one_batch);
    sim.run_until();
    EXPECT_EQ(reports.size(), 2u);
    EXPECT_EQ(analyzer.stats().reports_out, 2u);
    EXPECT_EQ(analyzer.stats().detections_in, 2u);
  }
}

TEST(AnalyzerTest, MergesSameFlowWithinWindow) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    AnalyzerConfig cfg;
    cfg.correlation_window = SimTime::from_sec(10);
    Analyzer analyzer(sim, cfg);
    std::vector<ThreatReport> reports;
    analyzer.set_on_report([&](const ThreatReport& r) {
      reports.push_back(r);
    });
    submit_all(analyzer,
               {detection(1, "rule-a"), detection(1, "rule-b"),
                detection(1, "rule-c")},
               one_batch);
    sim.run_until();
    EXPECT_EQ(reports.size(), 1u);
    EXPECT_EQ(analyzer.stats().merged, 2u);
  }
}

TEST(AnalyzerTest, SameFlowAfterWindowReportsAgain) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.correlation_window = SimTime::from_sec(1);
  Analyzer analyzer(sim, cfg);
  int reports = 0;
  analyzer.set_on_report([&](const ThreatReport&) { ++reports; });
  submit_all(analyzer, {detection(1, "rule-a")});
  sim.run_until();
  sim.schedule_at(SimTime::from_sec(5),
                  [&] { submit_all(analyzer, {detection(1, "rule-a")}); });
  sim.run_until();
  EXPECT_EQ(reports, 2);
}

TEST(AnalyzerTest, OffenderEscalation) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    AnalyzerConfig cfg;
    cfg.escalation_rule_count = 3;
    Analyzer analyzer(sim, cfg);
    std::vector<ThreatReport> reports;
    analyzer.set_on_report([&](const ThreatReport& r) {
      reports.push_back(r);
    });
    // Three distinct rules from one source in the window: escalate.
    submit_all(analyzer,
               {detection(1, "rule-a", 3), detection(2, "rule-b", 3),
                detection(3, "rule-c", 3)},
               one_batch);
    sim.run_until();
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].severity, 3);
    EXPECT_EQ(reports[2].severity, 4);  // escalated
    EXPECT_GE(analyzer.stats().escalations, 1u);
  }
}

TEST(AnalyzerTest, TransferDelayDelaysReports) {
  netsim::Simulator sim;
  AnalyzerConfig cfg;
  cfg.transfer_delay = SimTime::from_ms(50);
  Analyzer analyzer(sim, cfg);
  SimTime reported_at;
  analyzer.set_on_report([&](const ThreatReport& r) {
    reported_at = r.when;
  });
  submit_all(analyzer, {detection(1, "rule-a")});
  sim.run_until();
  EXPECT_GE(reported_at, SimTime::from_ms(50));
}

TEST(AnalyzerTest, StorageGrowsPerDetection) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    AnalyzerConfig cfg;
    cfg.bytes_per_detection = 512;
    Analyzer analyzer(sim, cfg);
    analyzer.set_on_report([](const ThreatReport&) {});
    std::vector<Detection> ds;
    for (int i = 0; i < 10; ++i) {
      ds.push_back(detection(static_cast<std::uint64_t>(i), "r"));
    }
    submit_all(analyzer, ds, one_batch);
    sim.run_until();
    EXPECT_EQ(analyzer.stats().bytes_stored, 5120u);
  }
}

TEST(MonitorTest, RaisesAlertAfterNotificationDelay) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.notification_delay = SimTime::from_ms(200);
  Monitor monitor(sim, cfg);
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  report.when = sim.now();
  monitor.submit(report);
  EXPECT_TRUE(monitor.log().empty());  // not yet raised
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.log()[0].raised, SimTime::from_ms(200));
  EXPECT_EQ(monitor.stats().alerts_raised, 1u);
}

TEST(MonitorTest, SeverityFloorSuppresses) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.min_severity = 3;
  Monitor monitor(sim, cfg);
  ThreatReport low;
  low.primary = detection(1, "noise", 1);
  low.severity = 2;
  monitor.submit(low);
  sim.run_until();
  EXPECT_TRUE(monitor.log().empty());
  EXPECT_EQ(monitor.stats().suppressed_severity, 1u);
}

TEST(MonitorTest, DuplicateFlowSuppressed) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  monitor.submit(report);
  monitor.submit(report);
  sim.run_until();
  EXPECT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);
  EXPECT_TRUE(monitor.alerted_flows().contains(1u));
}

TEST(MonitorTest, AlertCallbackFires) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  std::vector<Alert> alerts;
  monitor.set_on_alert([&](const Alert& a) { alerts.push_back(a); });
  ThreatReport report;
  report.primary = detection(5, "rule-x", 5);
  report.severity = 5;
  report.correlated_count = 3;
  monitor.submit(report);
  sim.run_until();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 5u);
  EXPECT_EQ(alerts[0].severity, 5);
  EXPECT_EQ(alerts[0].correlated_count, 3);
  EXPECT_GT(alerts[0].id, 0u);
}

TEST(MonitorTest, EscalatedSeverityReRaisesSameFlow) {
  // A later, more severe verdict on an already-alerted flow must reach
  // the operator (and the console's block policy); equal or lower
  // severity stays suppressed as a duplicate.
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport first;
  first.primary = detection(1, "weak-rule", 3);
  first.severity = 3;
  monitor.submit(first);
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 1u);

  ThreatReport equal = first;
  monitor.submit(equal);  // same severity: duplicate
  sim.run_until();
  EXPECT_EQ(monitor.log().size(), 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);

  ThreatReport escalated;
  escalated.primary = detection(1, "critical-rule", 5);
  escalated.severity = 5;
  monitor.submit(escalated);
  sim.run_until();
  ASSERT_EQ(monitor.log().size(), 2u);
  EXPECT_EQ(monitor.log()[1].severity, 5);
  // The flow set (Figure 3's D) still counts the flow once.
  EXPECT_EQ(monitor.alerted_flows().size(), 1u);
}

TEST(MonitorTest, ClearResetsEverything) {
  netsim::Simulator sim;
  Monitor monitor(sim, MonitorConfig{});
  ThreatReport report;
  report.primary = detection(1, "rule-a", 4);
  report.severity = 4;
  monitor.submit(report);
  sim.run_until();
  monitor.clear();
  EXPECT_TRUE(monitor.log().empty());
  EXPECT_TRUE(monitor.alerted_flows().empty());
  EXPECT_EQ(monitor.stats().alerts_raised, 0u);
}

TEST(DetectionMethodTest, Names) {
  EXPECT_EQ(to_string(DetectionMethod::kSignature), "signature");
  EXPECT_EQ(to_string(DetectionMethod::kAnomaly), "anomaly");
}

}  // namespace
}  // namespace idseval::ids
