// Measured Effectiveness of Generated Filters: after the console blocks
// an offender, later attacks from that source must be suppressed, and the
// suppression/collateral balance must be visible in the RunResult.
#include <gtest/gtest.h>

#include "harness/evaluate.hpp"
#include "harness/testbed.hpp"

namespace idseval::harness {
namespace {

using attack::AttackKind;
using netsim::SimTime;

TestbedConfig quick_env() {
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 6;
  env.external_hosts = 3;
  env.seed = 91;
  env.warmup = SimTime::from_sec(6);
  env.measure = SimTime::from_sec(25);
  env.drain = SimTime::from_sec(3);
  return env;
}

TEST(FilterEffectivenessTest, RepeatOffenderSuppressedAfterBlock) {
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  // No benign traffic sources from outside: the attacker's address then
  // carries attacks only, so a correct filter has zero collateral.
  TestbedConfig env = quick_env();
  env.profile.external_fraction = 0.0;
  Testbed bed(env, &model, 0.6);

  // One attacker fires a critical web exploit early, then keeps
  // attacking: the first exploit triggers the firewall block; later
  // attacks from the same source count as suppressed.
  attack::ChainStage flat;
  for (int i = 0; i < 6; ++i) {
    attack::AttackStep step;
    step.when = SimTime::from_sec(1.0 + 3.0 * i);
    step.kind = AttackKind::kWebExploit;
    step.attacker_index = 0;  // same attacker every time
    step.victim_index = static_cast<std::size_t>(i);
    flat.steps.push_back(step);
  }
  attack::KillChain chain;
  chain.add_stage(std::move(flat));
  const RunResult r = bed.run(chain);

  ASSERT_GT(r.firewall_blocks, 0u);
  EXPECT_GT(r.post_block_attacks_suppressed, 0u);
  // With external_fraction = 0 the blocked address carries attacks only,
  // so the generated filter locks out no legitimate users.
  EXPECT_EQ(r.post_block_benign_collateral, 0u);

  // Post-block attack transactions never reached the sensors; the
  // harness classifies them as prevented, NOT as Type II errors — a
  // product must not score worse for reacting.
  EXPECT_EQ(r.prevented_attacks, r.post_block_attacks_suppressed);
  EXPECT_EQ(r.true_detections + r.missed_attacks + r.prevented_attacks,
            r.attacks);
  EXPECT_EQ(r.missed_attacks, 0u);  // every exploit was seen or prevented
}

TEST(FilterEffectivenessTest, EvaluationScoresTheFilter) {
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  EvaluationOptions opt;
  opt.sensitivity = 0.6;
  opt.attacks_per_kind = 3;
  opt.include_load_metrics = false;
  const Evaluation eval = evaluate_product(quick_env(), model, opt);
  if (eval.measured.detection_run.firewall_blocks > 0) {
    const auto& entry =
        eval.card.at(core::MetricId::kEffectivenessOfGeneratedFilters);
    EXPECT_GE(entry.score.value(), 1);
    EXPECT_NE(entry.note.find("suppressed"), std::string::npos);
  }
}

TEST(FilterEffectivenessTest, NonBlockingProductKeepsFactScore) {
  const auto& model =
      products::product(products::ProductId::kSentryNid);  // cannot block
  EvaluationOptions opt;
  opt.include_load_metrics = false;
  const Evaluation eval = evaluate_product(quick_env(), model, opt);
  EXPECT_EQ(eval.measured.detection_run.firewall_blocks, 0u);
  // Fact-sheet score for filter generation remains untouched.
  EXPECT_TRUE(
      eval.card.has(core::MetricId::kEffectivenessOfGeneratedFilters));
}

}  // namespace
}  // namespace idseval::harness

namespace idseval::harness {
namespace {

TEST(FilterEffectivenessTest, BlockingSharedAddressShowsCollateral) {
  // When the offender address also carries legitimate traffic, blocking
  // it shuts those users out — the §2.2 "faulty policy" cost, measured.
  const auto& model =
      products::product(products::ProductId::kGuardSecure);
  TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.profile.external_fraction = 0.5;  // externals are heavy legit users
  env.internal_hosts = 6;
  env.external_hosts = 1;  // ...and there is only one external address
  env.seed = 91;
  env.warmup = netsim::SimTime::from_sec(6);
  env.measure = netsim::SimTime::from_sec(25);
  env.drain = netsim::SimTime::from_sec(3);
  Testbed bed(env, &model, 0.6);

  attack::ChainStage flat;
  flat.steps.push_back({.when = netsim::SimTime::from_sec(1),
                        .kind = attack::AttackKind::kWebExploit});
  attack::KillChain chain;
  chain.add_stage(std::move(flat));
  const RunResult r = bed.run(chain);
  if (r.firewall_blocks > 0) {
    EXPECT_GT(r.post_block_benign_collateral, 0u);
  }
}

}  // namespace
}  // namespace idseval::harness
