// Probe-telemetry accumulation (harness.probes and load-probe stage
// counters): every load measurement that is handed a Registry must
// record one harness.probes bump per probe simulation it used and fold
// those probes' stage telemetry into the accumulator — including probes
// that ran on executor workers, which never inherit an ambient registry.
// Probes shared between measures count once, plus one
// harness.probe_memo_hits per further use.
#include "harness/measure.hpp"

#include <gtest/gtest.h>

#include "harness/evaluate.hpp"
#include "telemetry/registry.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;

TestbedConfig tiny_env() {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 4;
  env.external_hosts = 2;
  env.seed = 23;
  env.warmup = SimTime::from_sec(4);
  env.measure = SimTime::from_sec(8);
  env.drain = SimTime::from_sec(2);
  return env;
}

std::uint64_t probes(const telemetry::Registry& reg) {
  const telemetry::Counter* c =
      reg.find_counter(telemetry::names::kHarnessProbes);
  return c != nullptr ? c->value() : 0;
}

TEST(ProbeTelemetryTest, LoadSweepCountsOneProbePerRatePoint) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  const auto points =
      load_sweep(tiny_env(), model, 0.5, {1.0, 2.0, 4.0}, &ctx);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(probes(reg), 3u);
  // Pool workers have no ambient registry; the accumulator must still
  // have received the probes' stage traffic.
  const telemetry::Counter* offered =
      reg.find_counter(telemetry::names::kSensorOffered);
  ASSERT_NE(offered, nullptr);
  EXPECT_GT(offered->value(), 0u);
}

TEST(ProbeTelemetryTest, InducedLatencyCountsBothSimulations) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  const double latency =
      measure_induced_latency_sec(tiny_env(), model, 0.5, &ctx);
  EXPECT_GE(latency, 0.0);
  // Product run plus no-IDS baseline.
  EXPECT_EQ(probes(reg), 2u);
}

TEST(ProbeTelemetryTest, LethalDoseSearchAccumulatesSequentially) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  // Scales 2.0 and 3.2 fit under max_scale 4.0: two probes.
  const auto dose = measure_lethal_dose_pps(tiny_env(), model, 0.5,
                                            /*max_scale=*/4.0, &ctx);
  EXPECT_FALSE(dose.has_value());
  EXPECT_EQ(probes(reg), 2u);
}

TEST(ProbeTelemetryTest, NullAccumulatorKeepsAmbientBehaviour) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry ambient;
  telemetry::ScopedRegistry scope(&ambient);
  // Sequential search with no accumulator records into the ambient
  // registry, exactly as before the accumulator existed.
  (void)measure_lethal_dose_pps(tiny_env(), model, 0.5, /*max_scale=*/4.0,
                                nullptr);
  EXPECT_EQ(probes(ambient), 2u);
}

std::uint64_t count_of(const telemetry::Registry& reg,
                       std::string_view name) {
  const telemetry::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(ProbeTelemetryTest, SharedProbesCountOnceAndAsMemoHits) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  telemetry::Registry reg;
  RunContext ctx(&reg);
  LoadSearchOptions options;
  options.zero_loss_max_scale = 8.0;
  options.overload_scale = 8.0;
  options.lethal_max_scale = 4.0;
  const LoadMetrics m =
      measure_load_metrics(tiny_env(), model, 0.5, options, &ctx);
  // The stock sensor passes every probe up to 8x: the zero-loss search
  // probes 1, 2, 4 and 8, which the ladder (1, 2, 8/3, 3.2, 4, 6, 8)
  // reuses. Distinct simulations: 4 + 3 ladder-only + 2 lethal-dose
  // rungs (2, 3.2) + 2 latency runs.
  EXPECT_GT(m.zero_loss_pps, 0.0);
  EXPECT_EQ(probes(reg), 11u);
  EXPECT_EQ(count_of(reg, telemetry::names::kHarnessProbeMemoHits), 4u);
  EXPECT_EQ(count_of(reg, telemetry::names::kHarnessProbeEarlyExits), 0u);
  // Speculation ran ahead on both hypothetical verdicts; every probe it
  // issued off the real path is discarded, never merged.
  EXPECT_GT(
      count_of(reg, telemetry::names::kHarnessProbeSpeculativeDiscards),
      0u);
}

TEST(ProbeTelemetryTest, SkippedLoadMetricsLeaveRegistryEmpty) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  EvaluationOptions options;
  options.attacks_per_kind = 1;
  options.include_load_metrics = false;
  const Evaluation eval = evaluate_product(tiny_env(), model, options);
  EXPECT_TRUE(eval.measured.load_probe_telemetry.empty());
}

}  // namespace
}  // namespace idseval::harness
