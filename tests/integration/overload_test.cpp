// Failure injection / overload behaviour across modules: what happens to
// detection when the offered load blows past the sensor's capacity. This
// is why Table 3 carries Maximal Throughput with Zero Loss and Network
// Lethal Dose: "they must not ... introduce bottlenecks ... They must
// execute deterministically and fail in a mode that does not hamper
// system performance" (§2).
#include <gtest/gtest.h>

#include "harness/testbed.hpp"

namespace idseval {
namespace {

using harness::RunResult;
using harness::Testbed;
using harness::TestbedConfig;
using netsim::SimTime;

/// A deliberately under-provisioned single-sensor signature product.
products::ProductModel weak_product(
    ids::RecoveryPolicy recovery = ids::RecoveryPolicy::kAppRestart) {
  products::ProductModel model =
      products::product(products::ProductId::kSentryNid);
  model.name = "WeakSentry";
  model.make_config = [recovery](double s) {
    auto c = products::product(products::ProductId::kSentryNid)
                 .make_config(s);
    c.sensor.ops_per_sec = 5e6;  // ~750 pps capacity
    c.sensor.queue_capacity = 256;
    c.sensor.overload_tolerance = netsim::SimTime::from_ms(150);
    c.sensor.recovery = recovery;
    return c;
  };
  return model;
}

TestbedConfig env_at(double rate_scale, std::uint64_t seed = 404) {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 6;
  env.external_hosts = 3;
  env.seed = seed;
  env.rate_scale = rate_scale;
  env.warmup = SimTime::from_sec(6);
  env.measure = SimTime::from_sec(15);
  env.drain = SimTime::from_sec(3);
  return env;
}

RunResult run_with_attacks(const products::ProductModel& model,
                           double rate_scale) {
  Testbed bed(env_at(rate_scale), &model, 0.5);
  const auto chain = attack::KillChain::of_kinds(
      {attack::AttackKind::kWebExploit, attack::AttackKind::kSmtpWorm,
       attack::AttackKind::kBruteForceLogin},
      4, SimTime::zero(), SimTime::from_sec(13), 11, 3, 6);
  return bed.run(chain);
}

TEST(OverloadTest, DetectionDegradesPastTheKnee) {
  const products::ProductModel model = weak_product();
  const RunResult nominal = run_with_attacks(model, 1.0);
  const RunResult overloaded = run_with_attacks(model, 20.0);

  // Below the knee: clean pipeline, everything known is caught.
  EXPECT_EQ(nominal.missed_attacks, 0u);
  EXPECT_LT(nominal.ids_loss_ratio, 0.01);

  // Past the knee the IDS drops traffic and misses attacks it would
  // otherwise catch — the unprotected-network failure mode.
  EXPECT_GT(overloaded.ids_loss_ratio, 0.3);
  EXPECT_GT(overloaded.missed_attacks, 0u);
  EXPECT_GT(overloaded.fn_ratio, nominal.fn_ratio);
}

TEST(OverloadTest, HangRecoveryLosesTheRestOfTheRun) {
  const RunResult hang =
      run_with_attacks(weak_product(ids::RecoveryPolicy::kHang), 20.0);
  const RunResult restart =
      run_with_attacks(weak_product(ids::RecoveryPolicy::kAppRestart),
                       20.0);
  // Both fail; the hanging sensor stays down so it processes less and
  // misses at least as much as the restarting one.
  EXPECT_GT(hang.sensor_failures, 0u);
  EXPECT_GT(restart.sensor_failures, 0u);
  EXPECT_LE(restart.ids_loss_ratio, hang.ids_loss_ratio + 1e-9);
  EXPECT_GE(hang.missed_attacks, restart.missed_attacks);
}

TEST(OverloadTest, ProductionTrafficUnaffectedByPassiveIdsCollapse) {
  // A mirrored IDS dying must not hamper the monitored system (§2): the
  // production network's own delivery stays intact.
  const products::ProductModel model = weak_product();
  Testbed bed(env_at(20.0), &model, 0.5);
  const RunResult r = bed.run_clean();
  EXPECT_GT(r.ids_loss_ratio, 0.3);      // the IDS is overwhelmed...
  EXPECT_GT(r.offered_pps, 0.0);
  // ...but production latency stays at LAN scale (well under 1 ms).
  EXPECT_LT(r.mean_delivery_latency_sec, 1e-3);
}

TEST(OverloadTest, FailureEventsVisibleInRunResult) {
  const products::ProductModel model =
      weak_product(ids::RecoveryPolicy::kColdReboot);
  Testbed bed(env_at(20.0), &model, 0.5);
  const RunResult r = bed.run_clean();
  EXPECT_GT(r.sensor_failures, 0u);
}

}  // namespace
}  // namespace idseval
