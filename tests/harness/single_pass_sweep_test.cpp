// Single-pass sweep regression: within the no-feedback envelope (pattern
// rules only, no anomaly engine, no console reactions, no host agents)
// the ledger-derived sweep must reproduce the re-simulated reference
// sweep point for point, and attaching a ledger must never change what a
// full-featured product detects.
#include <cmath>

#include <gtest/gtest.h>

#include "attack/killchain.hpp"
#include "harness/measure.hpp"
#include "harness/testbed.hpp"
#include "products/catalog.hpp"
#include "score/ledger.hpp"
#include "util/rng.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;

/// A pattern-rules-only signature product: detection is a pure per-packet
/// predicate of (rule confidence, sensitivity) with no feedback into the
/// simulation — exactly the envelope where the ledger sweep is exact.
/// Threshold rules are excluded because their confidence gate also gates
/// window-state updates; the anomaly engine because its winsorized
/// learning and cooldowns couple state to the trigger threshold; the
/// console because firewall blocks change subsequent traffic.
products::ProductModel pattern_only_model() {
  products::ProductModel model;
  model.id = products::ProductId::kSentryNid;
  model.name = "PatternOnly";
  model.description = "equivalence-test fixture";
  model.deploys_host_agents = false;
  model.make_config = [](double sensitivity) {
    ids::PipelineConfig c;
    c.product = "PatternOnly";
    c.sensor_count = 1;
    c.sensor.base_ops_per_packet = 1000.0;
    c.sensor.ops_per_sec = 1e9;  // generous: no overload feedback
    c.sensor.queue_capacity = 65536;
    c.signature_engine = true;
    c.anomaly_engine = false;
    c.rules = ids::standard_rule_set();
    c.rules.thresholds.clear();
    c.analyzer_count = 1;
    c.analyzer.ops_per_detection = 100.0;
    c.monitor.min_severity = 1;
    c.use_console = false;
    c.sensitivity = sensitivity;
    return c;
  };
  return model;
}

TestbedConfig short_env() {
  TestbedConfig env;
  env.warmup = SimTime::from_sec(5);
  env.measure = SimTime::from_sec(25);
  env.drain = SimTime::from_sec(3);
  env.seed = 42;
  return env;
}

TEST(SinglePassSweepTest, MatchesResimulatedSweepWithinTolerance) {
  const TestbedConfig env = short_env();
  const products::ProductModel model = pattern_only_model();
  const std::vector<double> sensitivities = {0.0,  0.1, 0.25, 0.4, 0.5,
                                             0.65, 0.8, 0.9,  1.0};

  const std::vector<ErrorRatePoint> reference =
      sensitivity_sweep(env, model, sensitivities, 4);
  const SinglePassSweep single =
      single_pass_sensitivity_sweep(env, model, sensitivities, 4);

  ASSERT_EQ(single.points.size(), reference.size());
  ASSERT_GT(single.roc.transactions(), 0u);
  ASSERT_GT(single.roc.attacks(), 0u);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("sensitivity " +
                 std::to_string(reference[i].sensitivity));
    EXPECT_NEAR(single.points[i].fp_ratio, reference[i].fp_ratio, 1e-9);
    EXPECT_NEAR(single.points[i].fn_ratio, reference[i].fn_ratio, 1e-9);
    EXPECT_NEAR(single.points[i].fp_percent_of_benign,
                reference[i].fp_percent_of_benign, 1e-9);
    EXPECT_NEAR(single.points[i].fn_percent_of_attacks,
                reference[i].fn_percent_of_attacks, 1e-9);
  }

  const EqualErrorRate ref_eer = equal_error_rate(reference);
  const EqualErrorRate single_eer = equal_error_rate(single.points);
  ASSERT_EQ(ref_eer.found, single_eer.found);
  if (ref_eer.found) {
    EXPECT_NEAR(single_eer.error_percent, ref_eer.error_percent, 1e-9);
    EXPECT_NEAR(single_eer.sensitivity, ref_eer.sensitivity, 1e-9);
  }
}

TEST(SinglePassSweepTest, RecordSensitivityDoesNotMatterInsideEnvelope) {
  // The recorded run's own sensitivity only gates which alerts IT raises;
  // the evidence stream underneath is the same, so the derived sweep must
  // be identical whichever knob setting recorded it.
  const TestbedConfig env = short_env();
  const products::ProductModel model = pattern_only_model();
  const std::vector<double> sensitivities = {0.0, 0.5, 1.0};

  const SinglePassSweep low = single_pass_sensitivity_sweep(
      env, model, sensitivities, 4, /*record_sensitivity=*/0.1);
  const SinglePassSweep high = single_pass_sensitivity_sweep(
      env, model, sensitivities, 4, /*record_sensitivity=*/0.9);
  ASSERT_EQ(low.points.size(), high.points.size());
  for (std::size_t i = 0; i < low.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(low.points[i].fp_percent_of_benign,
                     high.points[i].fp_percent_of_benign);
    EXPECT_DOUBLE_EQ(low.points[i].fn_percent_of_attacks,
                     high.points[i].fn_percent_of_attacks);
  }
}

TEST(SinglePassSweepTest, AttachingLedgerNeverChangesDetection) {
  // Full-featured product (anomaly engine, load balancer, console): the
  // ledger is purely observational, so the run's confusion counts must be
  // bit-identical with and without it.
  const TestbedConfig env = short_env();
  const products::ProductModel& model =
      products::product(products::ProductId::kFlowHunt);
  const auto chain = attack::KillChain::mixed(
      4, SimTime::zero(), env.measure * 0.9,
      util::hash64("sweep") ^ env.seed, env.external_hosts,
      env.internal_hosts);

  Testbed plain(env, &model, 0.6);
  const RunResult without = plain.run(chain);

  score::ScoreLedger ledger;
  Testbed recorded(env, &model, 0.6);
  recorded.set_score_ledger(&ledger);
  const RunResult with = recorded.run(chain);

  EXPECT_EQ(with.transactions, without.transactions);
  EXPECT_EQ(with.attacks, without.attacks);
  EXPECT_EQ(with.true_detections, without.true_detections);
  EXPECT_EQ(with.false_alarms, without.false_alarms);
  EXPECT_EQ(with.missed_attacks, without.missed_attacks);
  EXPECT_DOUBLE_EQ(with.timeliness_mean_sec, without.timeliness_mean_sec);
  EXPECT_TRUE(ledger.finalized());
  EXPECT_EQ(ledger.samples().size(), with.transactions);
}

}  // namespace
}  // namespace idseval::harness
