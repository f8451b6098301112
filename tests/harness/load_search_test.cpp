// Differential tests of the load searches (harness/measure.hpp): the
// memoized, early-stopping, speculative searches must return exactly
// what the sequential oracle (load_search_oracle.hpp) returns — every
// value bit for bit — and the same values, scorecard and telemetry at
// any executor width.
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "harness/evaluate.hpp"
#include "harness/measure.hpp"
#include "harness/probe_executor.hpp"
#include "load_search_oracle.hpp"
#include "results/doc.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;
namespace names = telemetry::names;

TestbedConfig tiny_env(const std::string& profile, std::uint64_t seed) {
  TestbedConfig env;
  env.profile = traffic::profile_by_name(profile);
  env.internal_hosts = 4;
  env.external_hosts = 2;
  env.seed = seed;
  env.warmup = SimTime::from_sec(1);
  env.measure = SimTime::from_sec(3);
  env.drain = SimTime::from_sec(1);
  return env;
}

/// The product with every sensor `slowdown` times slower, so its knee,
/// failures and lethal dose fall inside small scale ranges.
products::ProductModel slowed(products::ProductId id, double slowdown) {
  products::ProductModel model = products::product(id);
  model.make_config = [id, slowdown](double s) {
    ids::PipelineConfig c = products::product(id).make_config(s);
    c.sensor.ops_per_sec /= slowdown;
    c.agent_sensor.ops_per_sec /= slowdown;
    return c;
  };
  return model;
}

/// Small ranges: a handful of cheap probes per search. The doubling
/// bracket stops short of 6, so a product that never loses also takes
/// the max-scale probe.
LoadSearchOptions small_ranges() {
  LoadSearchOptions options;
  options.zero_loss_max_scale = 6.0;
  options.iterations = 3;
  options.overload_scale = 6.0;
  options.lethal_max_scale = 6.0;
  return options;
}

/// Sensor slowdown that puts the stock products' knees inside
/// small_ranges().
constexpr double kSlowdown = 24.0;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const LoadMetrics& got, const LoadMetrics& want) {
  EXPECT_EQ(bits(got.zero_loss_pps), bits(want.zero_loss_pps));
  EXPECT_EQ(bits(got.system_throughput_pps),
            bits(want.system_throughput_pps));
  ASSERT_EQ(got.lethal_dose_pps.has_value(),
            want.lethal_dose_pps.has_value());
  if (want.lethal_dose_pps) {
    EXPECT_EQ(bits(*got.lethal_dose_pps), bits(*want.lethal_dose_pps));
  }
  EXPECT_EQ(bits(got.induced_latency_sec), bits(want.induced_latency_sec));
}

std::string telemetry_json(const telemetry::Registry& registry) {
  return results::to_json(telemetry::to_doc(registry));
}

std::uint64_t counter(const telemetry::Registry& registry,
                      std::string_view name) {
  const telemetry::Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

class LoadSearchDifferential
    : public ::testing::TestWithParam<
          std::tuple<products::ProductId, std::string>> {};

TEST_P(LoadSearchDifferential, MatchesSequentialOracleOnRandomSeeds) {
  const auto [id, profile] = GetParam();
  util::Rng rng(util::hash64(profile) ^ static_cast<std::uint64_t>(id));
  ProbeExecutor narrow(1);
  ProbeExecutor wide(4);
  // The stock sensors mostly pass every probe (bracket and max-scale
  // probe); the slowed ones fail inside the range (bisection, early
  // stops, lethal doses). ecommerce's flash crowds make its probes
  // several times costlier, so it runs the slowed variant alone.
  std::vector<double> slowdowns = {kSlowdown};
  if (profile != "ecommerce") slowdowns.insert(slowdowns.begin(), 1.0);
  for (const double slowdown : slowdowns) {
    const products::ProductModel model = slowed(id, slowdown);
    const TestbedConfig env = tiny_env(profile, rng.next());
    SCOPED_TRACE(profile + " seed " + std::to_string(env.seed) +
                 " slowdown " + std::to_string(slowdown));
    const LoadSearchOptions options = small_ranges();
    const LoadMetrics want = oracle::load_metrics(env, model, 0.5, options);

    RunContext wide_ctx;
    wide_ctx.set_probe_executor(&wide);
    expect_identical(
        measure_load_metrics(env, model, 0.5, options, &wide_ctx), want);

    // The standalone search stops every failing probe it can (no ladder
    // shares them), here one probe at a time.
    RunContext narrow_ctx;
    narrow_ctx.set_probe_executor(&narrow);
    EXPECT_EQ(bits(measure_zero_loss_pps(env, model, 0.5,
                                         options.zero_loss_max_scale,
                                         options.loss_epsilon,
                                         options.iterations, &narrow_ctx)),
              bits(want.zero_loss_pps));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProductsAndProfiles, LoadSearchDifferential,
    ::testing::Combine(::testing::Values(products::ProductId::kSentryNid,
                                         products::ProductId::kGuardSecure,
                                         products::ProductId::kFlowHunt,
                                         products::ProductId::kAgentSwarm),
                       ::testing::Values("rt_cluster", "ics", "ecommerce")));

TEST(LoadSearchTest, SameValuesAndTelemetryAtOneAndFourWorkers) {
  const products::ProductModel model =
      slowed(products::ProductId::kSentryNid, kSlowdown);
  const TestbedConfig env = tiny_env("rt_cluster", 11);
  const LoadSearchOptions options = small_ranges();
  const LoadMetrics want = oracle::load_metrics(env, model, 0.5, options);
  std::vector<telemetry::Registry> regs(2);
  ProbeExecutor narrow(1);
  ProbeExecutor wide(4);
  ProbeExecutor* executors[] = {&narrow, &wide};
  for (std::size_t i = 0; i < regs.size(); ++i) {
    RunContext ctx(&regs[i]);
    ctx.set_probe_executor(executors[i]);
    expect_identical(measure_load_metrics(env, model, 0.5, options, &ctx),
                     want);
  }
  EXPECT_EQ(telemetry_json(regs[0]), telemetry_json(regs[1]));
  // The slowed sensor fails probes the ladder does not read, and the
  // search speculated past its real path.
  EXPECT_GT(counter(regs[0], names::kHarnessProbeEarlyExits), 0u);
  EXPECT_GT(counter(regs[0], names::kHarnessProbeSpeculativeDiscards), 0u);
}

TEST(LoadSearchTest, LossyPassingProbesRunToTheirEnd) {
  // Short queues and an unreachable overload trip: sensors drop packets
  // under load but never fail. With a loose epsilon some lossy probes
  // pass, so only a failure may end a probe early.
  for (const auto id : {products::ProductId::kSentryNid,
                        products::ProductId::kGuardSecure,
                        products::ProductId::kAgentSwarm}) {
    products::ProductModel model = products::product(id);
    model.make_config = [id](double s) {
      ids::PipelineConfig c = products::product(id).make_config(s);
      for (ids::SensorConfig* sensor : {&c.sensor, &c.agent_sensor}) {
        sensor->ops_per_sec /= kSlowdown;
        sensor->queue_capacity = 16;
        sensor->overload_tolerance = SimTime::from_sec(1000);
      }
      return c;
    };
    const TestbedConfig env = tiny_env("rt_cluster", 13);
    const double max_scale = 6.0;
    const double loss_epsilon = 0.05;
    const int iterations = 4;
    EXPECT_EQ(bits(measure_zero_loss_pps(env, model, 0.5, max_scale,
                                         loss_epsilon, iterations)),
              bits(oracle::zero_loss_pps(env, model, 0.5, max_scale,
                                         loss_epsilon, iterations)))
        << products::product(id).name;
  }
}

TEST(LoadSearchTest, StandaloneMeasuresMatchTheOracle) {
  const products::ProductModel model =
      slowed(products::ProductId::kGuardSecure, kSlowdown);
  const TestbedConfig env = tiny_env("ics", 5);
  EXPECT_EQ(bits(measure_system_throughput_pps(env, model, 0.5, 6.0)),
            bits(oracle::system_throughput_pps(env, model, 0.5, 6.0)));
  const auto dose = measure_lethal_dose_pps(env, model, 0.5, 6.0);
  const auto want = oracle::lethal_dose_pps(env, model, 0.5, 6.0);
  ASSERT_EQ(dose.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(bits(*dose), bits(*want));
  }
  EXPECT_EQ(bits(measure_induced_latency_sec(env, model, 0.5)),
            bits(oracle::induced_latency_sec(env, model, 0.5)));
  const std::vector<double> scales = {1.0, 3.0, 1.0};
  const auto points = load_sweep(env, model, 0.5, scales);
  ASSERT_EQ(points.size(), scales.size());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const LoadPoint want_point =
        run_load_probe(env, model, 0.5, ProbeKind::kClean, scales[i]);
    EXPECT_EQ(bits(points[i].offered_pps), bits(want_point.offered_pps));
    EXPECT_EQ(bits(points[i].processed_pps), bits(want_point.processed_pps));
    EXPECT_EQ(bits(points[i].loss_ratio), bits(want_point.loss_ratio));
  }
}

TEST(LoadSearchTest, EvaluateIsIdenticalAtOneAndFourWorkersAndMatchesOracle) {
  const products::ProductModel model =
      slowed(products::ProductId::kSentryNid, kSlowdown);
  const TestbedConfig env = tiny_env("rt_cluster", 29);
  EvaluationOptions options;
  options.attacks_per_kind = 1;
  options.include_load_metrics = true;

  ProbeExecutor narrow(1);
  ProbeExecutor wide(4);
  RunContext narrow_ctx;
  narrow_ctx.set_probe_executor(&narrow);
  RunContext wide_ctx;
  wide_ctx.set_probe_executor(&wide);
  const Evaluation a = evaluate_product(env, model, options, &narrow_ctx);
  const Evaluation b = evaluate_product(env, model, options, &wide_ctx);

  ASSERT_EQ(a.card.entries().size(), b.card.entries().size());
  for (const auto& [id, entry] : a.card.entries()) {
    ASSERT_TRUE(b.card.has(id)) << core::to_string(id);
    EXPECT_EQ(entry.score.value(), b.card.at(id).score.value());
    EXPECT_EQ(entry.note, b.card.at(id).note);
  }
  EXPECT_EQ(telemetry_json(a.measured.load_probe_telemetry),
            telemetry_json(b.measured.load_probe_telemetry));

  // evaluate_product searches the ranges LoadSearchOptions defaults to.
  const LoadMetrics want = oracle::load_metrics(env, model, 0.5, {});
  for (const Evaluation* eval : {&a, &b}) {
    const Measurements& m = eval->measured;
    EXPECT_EQ(bits(m.zero_loss_pps), bits(want.zero_loss_pps));
    EXPECT_EQ(bits(m.system_throughput_pps),
              bits(std::max(want.system_throughput_pps, want.zero_loss_pps)));
    ASSERT_EQ(m.lethal_dose_pps.has_value(),
              want.lethal_dose_pps.has_value());
    if (want.lethal_dose_pps) {
      EXPECT_EQ(bits(*m.lethal_dose_pps), bits(*want.lethal_dose_pps));
    }
    EXPECT_EQ(bits(m.induced_latency_sec), bits(want.induced_latency_sec));
  }
}

TEST(LoadSearchTest, CallersSharingOneExecutorAgree) {
  // Nested use: several callers share one narrow executor and help it
  // while they wait; every caller gets the sequential answer.
  const products::ProductModel model =
      slowed(products::ProductId::kFlowHunt, kSlowdown);
  const TestbedConfig env = tiny_env("rt_cluster", 3);
  const LoadSearchOptions options = small_ranges();
  const LoadMetrics want = oracle::load_metrics(env, model, 0.5, options);
  ProbeExecutor shared(2);
  std::vector<LoadMetrics> got(3);
  {
    std::vector<std::jthread> callers;
    for (std::size_t i = 0; i < got.size(); ++i) {
      callers.emplace_back([&, i] {
        RunContext ctx;
        ctx.set_probe_executor(&shared);
        got[i] = measure_load_metrics(env, model, 0.5, options, &ctx);
      });
    }
  }
  for (const LoadMetrics& m : got) expect_identical(m, want);
}

TEST(LoadSearchTest, SearchThreadWakesOnlyOnFinishedProbes) {
  // Each search names only the probe it is blocked on, so the caller's
  // wait returns once per finished probe at most: every probe task ran
  // for a consumer (harness.probes) or was a speculative discard. A
  // search that named finished probes would spin through thousands.
  const products::ProductModel model =
      slowed(products::ProductId::kSentryNid, kSlowdown);
  const TestbedConfig env = tiny_env("rt_cluster", 11);
  telemetry::Registry reg;
  ProbeExecutor executor(4);
  RunContext ctx(&reg);
  ctx.set_probe_executor(&executor);
  (void)measure_load_metrics(env, model, 0.5, small_ranges(), &ctx);
  const std::uint64_t tasks =
      counter(reg, names::kHarnessProbes) +
      counter(reg, names::kHarnessProbeSpeculativeDiscards);
  EXPECT_GT(tasks, 0u);
  EXPECT_LE(executor.wakes(), tasks + 1);
}

TEST(TestbedStopHookTest, HookThatNeverFiresLeavesTheRunUnchanged) {
  const auto& model = products::product(products::ProductId::kGuardSecure);
  TestbedConfig env = tiny_env("rt_cluster", 17);
  env.rate_scale = 3.0;
  Testbed plain(env, &model, 0.5);
  const RunResult a = plain.run_clean();
  Testbed hooked(env, &model, 0.5);
  int polls = 0;
  hooked.set_stop_hook([&polls](const ids::Pipeline&, bool) {
    ++polls;
    return false;
  });
  const RunResult b = hooked.run_clean();
  // One warmup poll and three measurement polls; none at the drain's end.
  EXPECT_EQ(polls, 4);
  EXPECT_FALSE(b.stopped_early);
  EXPECT_EQ(bits(a.offered_pps), bits(b.offered_pps));
  EXPECT_EQ(bits(a.processed_pps), bits(b.processed_pps));
  EXPECT_EQ(bits(a.ids_loss_ratio), bits(b.ids_loss_ratio));
  EXPECT_EQ(bits(a.mean_delivery_latency_sec),
            bits(b.mean_delivery_latency_sec));
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.total_streams, b.total_streams);
}

TEST(TestbedStopHookTest, FiringHookEndsTheRunAndFlagsIt) {
  const auto& model = products::product(products::ProductId::kSentryNid);
  const TestbedConfig env = tiny_env("rt_cluster", 17);
  Testbed bed(env, &model, 0.5);
  bool saw_measuring = false;
  bed.set_stop_hook([&saw_measuring](const ids::Pipeline&, bool measuring) {
    saw_measuring = measuring;
    return true;
  });
  const RunResult r = bed.run_clean();
  EXPECT_TRUE(r.stopped_early);
  EXPECT_FALSE(saw_measuring);  // Stopped at the first warmup poll.
}

}  // namespace
}  // namespace idseval::harness
