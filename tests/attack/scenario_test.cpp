#include "attack/scenario.hpp"

#include <gtest/gtest.h>

#include "util/strfmt.hpp"

namespace idseval::attack {
namespace {

using netsim::Ipv4;
using netsim::SimTime;

TEST(ScenarioTest, MixedCoversEveryKind) {
  const Scenario s = Scenario::mixed(3, SimTime::zero(),
                                     SimTime::from_sec(60), 1);
  EXPECT_EQ(s.size(), 3 * kAttackKindCount);
  const auto hist = s.histogram();
  EXPECT_EQ(hist.size(), kAttackKindCount);
  for (const auto& [kind, count] : hist) EXPECT_EQ(count, 3u);
}

TEST(ScenarioTest, StepsSortedByTime) {
  const Scenario s = Scenario::mixed(5, SimTime::zero(),
                                     SimTime::from_sec(60), 2);
  for (std::size_t i = 1; i < s.steps().size(); ++i) {
    EXPECT_LE(s.steps()[i - 1].when, s.steps()[i].when);
  }
}

TEST(ScenarioTest, StepsWithinWindow) {
  const SimTime lo = SimTime::from_sec(10);
  const SimTime hi = SimTime::from_sec(20);
  const Scenario s = Scenario::mixed(4, lo, hi, 3);
  for (const auto& step : s.steps()) {
    EXPECT_GE(step.when, lo);
    EXPECT_LT(step.when, hi);
  }
}

TEST(ScenarioTest, DeterministicForSeed) {
  const Scenario a = Scenario::mixed(2, SimTime::zero(),
                                     SimTime::from_sec(30), 7);
  const Scenario b = Scenario::mixed(2, SimTime::zero(),
                                     SimTime::from_sec(30), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.steps()[i].when, b.steps()[i].when);
    EXPECT_EQ(a.steps()[i].kind, b.steps()[i].kind);
    EXPECT_EQ(a.steps()[i].attacker_index, b.steps()[i].attacker_index);
  }
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  const Scenario a = Scenario::mixed(2, SimTime::zero(),
                                     SimTime::from_sec(30), 7);
  const Scenario b = Scenario::mixed(2, SimTime::zero(),
                                     SimTime::from_sec(30), 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.steps()[i].when != b.steps()[i].when) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioTest, OfKindsRestrictsKinds) {
  const Scenario s = Scenario::of_kinds(
      {AttackKind::kPortScan, AttackKind::kSmtpWorm}, 5, SimTime::zero(),
      SimTime::from_sec(10), 4);
  EXPECT_EQ(s.size(), 10u);
  for (const auto& step : s.steps()) {
    EXPECT_TRUE(step.kind == AttackKind::kPortScan ||
                step.kind == AttackKind::kSmtpWorm);
  }
}

TEST(ScenarioTest, BadWindowThrows) {
  EXPECT_THROW(Scenario::mixed(1, SimTime::from_sec(10),
                               SimTime::from_sec(5), 1),
               std::invalid_argument);
}

TEST(ScenarioTest, RunLaunchesEverything) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::vector<Ipv4> internal;
  for (int i = 1; i <= 4; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
    net.add_host(util::cat("h", i), addr);
    internal.push_back(addr);
  }
  const Ipv4 ext(198, 51, 100, 1);
  net.add_external_host("ext", ext);
  traffic::TransactionLedger ledger;
  AttackEmitter emitter(sim, net, ledger, 5);

  const Scenario s = Scenario::mixed(2, SimTime::zero(),
                                     SimTime::from_sec(10), 9);
  const auto flows = s.run(emitter, {ext}, internal);
  EXPECT_EQ(flows.size(), s.size());
  EXPECT_EQ(ledger.attack_count(), s.size());
  sim.run_until();
  EXPECT_GT(emitter.stats().packets_emitted, 0u);
}

TEST(ScenarioTest, InsiderStepsUseInternalAttackers) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::vector<Ipv4> internal;
  for (int i = 1; i <= 4; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
    net.add_host(util::cat("h", i), addr);
    internal.push_back(addr);
  }
  const Ipv4 ext(198, 51, 100, 1);
  net.add_external_host("ext", ext);
  traffic::TransactionLedger ledger;
  AttackEmitter emitter(sim, net, ledger, 5);

  const Scenario s = Scenario::of_kinds({AttackKind::kInsiderMasquerade}, 4,
                                        SimTime::zero(),
                                        SimTime::from_sec(5), 11);
  s.run(emitter, {ext}, internal);
  for (const traffic::Transaction* t : ledger.attacks()) {
    EXPECT_TRUE(t->tuple.src_ip.in_subnet(Ipv4(10, 0, 0, 0), 8));
    EXPECT_NE(t->tuple.src_ip, t->tuple.dst_ip);
  }
}

TEST(ScenarioTest, RunWithoutHostsThrows) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  traffic::TransactionLedger ledger;
  AttackEmitter emitter(sim, net, ledger, 5);
  const Scenario s = Scenario::mixed(1, SimTime::zero(),
                                     SimTime::from_sec(5), 1);
  EXPECT_THROW(s.run(emitter, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace idseval::attack
