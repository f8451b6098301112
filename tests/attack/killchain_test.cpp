#include "attack/killchain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "traffic/ledger.hpp"
#include "util/strfmt.hpp"

namespace idseval::attack {
namespace {

using netsim::Ipv4;
using netsim::SimTime;

TEST(KillChainTest, PresetIsDeterministicInSeed) {
  for (const std::string& name : KillChain::preset_names()) {
    const KillChain a =
        KillChain::preset(name, 1234, SimTime::from_sec(5), 4, 8);
    const KillChain b =
        KillChain::preset(name, 1234, SimTime::from_sec(5), 4, 8);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t s = 0; s < a.size(); ++s) {
      const ChainStage& sa = a.stages()[s];
      const ChainStage& sb = b.stages()[s];
      EXPECT_EQ(sa.stage, sb.stage);
      ASSERT_EQ(sa.steps.size(), sb.steps.size());
      for (std::size_t i = 0; i < sa.steps.size(); ++i) {
        EXPECT_EQ(sa.steps[i].when, sb.steps[i].when);
        EXPECT_EQ(sa.steps[i].kind, sb.steps[i].kind);
        EXPECT_EQ(sa.steps[i].attacker_index, sb.steps[i].attacker_index);
        EXPECT_EQ(sa.steps[i].victim_index, sb.steps[i].victim_index);
      }
    }
  }
}

TEST(KillChainTest, PresetsFollowTheCanonicalArc) {
  for (const std::string& name : KillChain::preset_names()) {
    const KillChain chain =
        KillChain::preset(name, 7, SimTime::from_sec(2));
    ASSERT_EQ(chain.size(), 4u) << name;
    EXPECT_EQ(chain.stages()[0].stage, Stage::kRecon);
    EXPECT_EQ(chain.stages()[1].stage, Stage::kExploit);
    EXPECT_EQ(chain.stages()[2].stage, Stage::kLateral);
    EXPECT_EQ(chain.stages()[3].stage, Stage::kExfil);
    // Lateral and exfil pivot onto hosts the exploit stage compromised.
    EXPECT_TRUE(chain.stages()[1].compromises);
    EXPECT_TRUE(chain.stages()[2].pivot);
    EXPECT_TRUE(chain.stages()[3].pivot);
  }
}

TEST(KillChainTest, UnknownPresetThrows) {
  EXPECT_THROW(KillChain::preset("nope", 1, SimTime::from_sec(1)),
               std::invalid_argument);
}

TEST(KillChainTest, HistogramCountsAcrossStages) {
  const KillChain chain =
      KillChain::preset("intrusion", 3, SimTime::from_sec(1));
  const auto counts = chain.histogram();
  std::size_t total = 0;
  for (const auto& [kind, n] : counts) total += n;
  EXPECT_EQ(total, chain.total_steps());
  const std::size_t* scans = counts.find(AttackKind::kPortScan);
  ASSERT_NE(scans, nullptr);
  EXPECT_EQ(*scans, 1u);
}

// Flat chains: the one-stage, unlabelled scripts mixed() and of_kinds()
// build. The suite keeps the name of the flat-script tests it replaced,
// so their ids carry over.
const std::vector<AttackStep>& flat_steps(const KillChain& chain) {
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_FALSE(chain.stages().front().stage.has_value());
  return chain.stages().front().steps;
}

TEST(ScenarioTest, MixedCoversEveryKind) {
  const KillChain s = KillChain::mixed(3, SimTime::zero(),
                                       SimTime::from_sec(60), 1);
  EXPECT_EQ(flat_steps(s).size(), 3 * kAttackKindCount);
  const auto hist = s.histogram();
  EXPECT_EQ(hist.size(), kAttackKindCount);
  for (const auto& [kind, count] : hist) EXPECT_EQ(count, 3u);
}

TEST(ScenarioTest, StepsSortedByTime) {
  const KillChain s = KillChain::mixed(5, SimTime::zero(),
                                       SimTime::from_sec(60), 2);
  const auto& steps = flat_steps(s);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LE(steps[i - 1].when, steps[i].when);
  }
}

TEST(ScenarioTest, StepsWithinWindow) {
  const SimTime lo = SimTime::from_sec(10);
  const SimTime hi = SimTime::from_sec(20);
  const KillChain s = KillChain::mixed(4, lo, hi, 3);
  for (const auto& step : flat_steps(s)) {
    EXPECT_GE(step.when, lo);
    EXPECT_LT(step.when, hi);
  }
}

TEST(ScenarioTest, DeterministicForSeed) {
  const KillChain a = KillChain::mixed(2, SimTime::zero(),
                                       SimTime::from_sec(30), 7);
  const KillChain b = KillChain::mixed(2, SimTime::zero(),
                                       SimTime::from_sec(30), 7);
  const auto& sa = flat_steps(a);
  const auto& sb = flat_steps(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].when, sb[i].when);
    EXPECT_EQ(sa[i].kind, sb[i].kind);
    EXPECT_EQ(sa[i].attacker_index, sb[i].attacker_index);
  }
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  const KillChain a = KillChain::mixed(2, SimTime::zero(),
                                       SimTime::from_sec(30), 7);
  const KillChain b = KillChain::mixed(2, SimTime::zero(),
                                       SimTime::from_sec(30), 8);
  const auto& sa = flat_steps(a);
  const auto& sb = flat_steps(b);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].when != sb[i].when) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioTest, OfKindsRestrictsKinds) {
  const KillChain s = KillChain::of_kinds(
      {AttackKind::kPortScan, AttackKind::kSmtpWorm}, 5, SimTime::zero(),
      SimTime::from_sec(10), 4);
  EXPECT_EQ(flat_steps(s).size(), 10u);
  for (const auto& step : flat_steps(s)) {
    EXPECT_TRUE(step.kind == AttackKind::kPortScan ||
                step.kind == AttackKind::kSmtpWorm);
  }
}

TEST(ScenarioTest, BadWindowThrows) {
  EXPECT_THROW(KillChain::mixed(1, SimTime::from_sec(10),
                                SimTime::from_sec(5), 1),
               std::invalid_argument);
}

/// A four-host enclave and one external attacker on a bare network.
struct FlatRig {
  FlatRig() : net(sim), emitter(sim, net, ledger, 5) {
    for (int i = 1; i <= 4; ++i) {
      const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
      net.add_host(util::cat("h", i), addr);
      internal.push_back(addr);
    }
    net.add_external_host("ext", ext);
  }

  netsim::Simulator sim;
  netsim::Network net;
  traffic::TransactionLedger ledger;
  AttackEmitter emitter;
  std::vector<Ipv4> internal;
  const Ipv4 ext{198, 51, 100, 1};
};

TEST(ScenarioTest, RunLaunchesEverything) {
  FlatRig rig;
  const KillChain s = KillChain::mixed(2, SimTime::zero(),
                                       SimTime::from_sec(10), 9);
  const auto flows =
      s.run(rig.emitter, {rig.ext}, rig.internal, SimTime::zero());
  EXPECT_EQ(flows.size(), s.total_steps());
  EXPECT_EQ(rig.ledger.attack_count(), s.total_steps());
  rig.sim.run_until();
  EXPECT_GT(rig.emitter.stats().packets_emitted, 0u);
}

TEST(ScenarioTest, InsiderStepsUseInternalAttackers) {
  FlatRig rig;
  const KillChain s = KillChain::of_kinds(
      {AttackKind::kInsiderMasquerade}, 4, SimTime::zero(),
      SimTime::from_sec(5), 11);
  s.run(rig.emitter, {rig.ext}, rig.internal, SimTime::zero());
  for (const traffic::Transaction* t : rig.ledger.attacks()) {
    EXPECT_TRUE(t->tuple.src_ip.in_subnet(Ipv4(10, 0, 0, 0), 8));
    EXPECT_NE(t->tuple.src_ip, t->tuple.dst_ip);
  }
}

TEST(ScenarioTest, RunWithoutHostsThrows) {
  FlatRig rig;
  const KillChain s = KillChain::mixed(1, SimTime::zero(),
                                       SimTime::from_sec(5), 1);
  EXPECT_THROW(s.run(rig.emitter, {}, {}, SimTime::zero()),
               std::invalid_argument);
}

class KillChainRunTest : public ::testing::Test {
 protected:
  KillChainRunTest() : net_(sim_), emitter_(sim_, net_, ledger_, 99) {
    for (int i = 1; i <= 4; ++i) {
      internal_.emplace_back(10, 0, 0, static_cast<std::uint8_t>(i));
      net_.add_host("node", internal_.back());
    }
    external_.emplace_back(198, 51, 100, 1);
    net_.add_external_host("ext", external_.back());
  }

  netsim::Simulator sim_;
  netsim::Network net_;
  traffic::TransactionLedger ledger_;
  AttackEmitter emitter_;
  std::vector<Ipv4> internal_;
  std::vector<Ipv4> external_;
};

TEST_F(KillChainRunTest, LaterStagesLaunchAfterEarlierFlowsComplete) {
  const KillChain chain =
      KillChain::preset("intrusion", 42, SimTime::from_ms(200));
  const auto flows =
      chain.run(emitter_, external_, internal_, SimTime::from_ms(10));
  EXPECT_EQ(flows.size(), chain.total_steps());
  const auto& launches = chain.last_run();
  ASSERT_EQ(launches.size(), chain.size());
  for (std::size_t s = 1; s < launches.size(); ++s) {
    // Stage s begins only after stage s-1's last scheduled packet plus
    // the dwell gap.
    EXPECT_GE(launches[s].begin,
              launches[s - 1].end + chain.stages()[s - 1].gap_after)
        << "stage " << s;
    EXPECT_GE(launches[s].end, launches[s].begin);
  }
  sim_.run_until();  // the schedule must actually execute
}

TEST_F(KillChainRunTest, GroundTruthCarriesStageLabels) {
  const KillChain chain =
      KillChain::preset("intrusion", 42, SimTime::from_ms(200));
  chain.run(emitter_, external_, internal_, SimTime::from_ms(10));
  sim_.run_until();

  std::set<int> stages_seen;
  for (const traffic::Transaction* t : ledger_.all()) {
    ASSERT_TRUE(t->is_attack);
    ASSERT_GE(t->attack_stage, 0);
    ASSERT_LT(t->attack_stage, static_cast<int>(kStageCount));
    stages_seen.insert(t->attack_stage);
  }
  // All four chain stages appear in the ground truth.
  EXPECT_EQ(stages_seen.size(), 4u);
}

TEST_F(KillChainRunTest, LateralStagesPivotOntoCompromisedHosts) {
  const KillChain chain =
      KillChain::preset("intrusion", 42, SimTime::from_ms(200));
  chain.run(emitter_, external_, internal_, SimTime::from_ms(10));
  sim_.run_until();

  // Victims of the compromising stages join the pivot pool: lateral
  // attackers come from the exploit stage's victims, exfil attackers from
  // exploit or lateral victims (the lateral stage compromises too).
  std::set<std::uint32_t> exploit_victims;
  std::set<std::uint32_t> lateral_victims;
  for (const traffic::Transaction* t : ledger_.all()) {
    if (t->attack_stage == static_cast<int>(Stage::kExploit)) {
      exploit_victims.insert(t->tuple.dst_ip.value());
    } else if (t->attack_stage == static_cast<int>(Stage::kLateral)) {
      lateral_victims.insert(t->tuple.dst_ip.value());
    }
  }
  ASSERT_FALSE(exploit_victims.empty());
  std::size_t pivoted = 0;
  for (const traffic::Transaction* t : ledger_.all()) {
    if (t->attack_stage == static_cast<int>(Stage::kLateral)) {
      EXPECT_TRUE(exploit_victims.contains(t->tuple.src_ip.value()))
          << "lateral flow did not pivot";
      ++pivoted;
    } else if (t->attack_stage == static_cast<int>(Stage::kExfil)) {
      EXPECT_TRUE(exploit_victims.contains(t->tuple.src_ip.value()) ||
                  lateral_victims.contains(t->tuple.src_ip.value()))
          << "exfil flow did not pivot";
      ++pivoted;
    }
  }
  EXPECT_GE(pivoted, 2u);
}

TEST_F(KillChainRunTest, SameSeedReplaysIdenticalSchedule) {
  const KillChain chain =
      KillChain::preset("ics-takeover", 7, SimTime::from_ms(150));
  chain.run(emitter_, external_, internal_, SimTime::from_ms(5));
  std::vector<std::pair<SimTime, SimTime>> first;
  for (const auto& launch : chain.last_run()) {
    first.emplace_back(launch.begin, launch.end);
  }

  netsim::Simulator sim2;
  netsim::Network net2(sim2);
  traffic::TransactionLedger ledger2;
  AttackEmitter emitter2(sim2, net2, ledger2, 99);
  for (const Ipv4 addr : internal_) net2.add_host("node", addr);
  for (const Ipv4 addr : external_) net2.add_external_host("ext", addr);
  const KillChain again =
      KillChain::preset("ics-takeover", 7, SimTime::from_ms(150));
  again.run(emitter2, external_, internal_, SimTime::from_ms(5));
  ASSERT_EQ(again.last_run().size(), first.size());
  for (std::size_t s = 0; s < first.size(); ++s) {
    EXPECT_EQ(again.last_run()[s].begin, first[s].first);
    EXPECT_EQ(again.last_run()[s].end, first[s].second);
  }
}

TEST_F(KillChainRunTest, EmptyInternalPoolThrows) {
  const KillChain chain =
      KillChain::preset("intrusion", 1, SimTime::from_ms(100));
  EXPECT_THROW(chain.run(emitter_, external_, {}, SimTime::zero()),
               std::invalid_argument);
}

TEST_F(KillChainRunTest, StageOverrideResetsAfterRun) {
  const KillChain chain =
      KillChain::preset("intrusion", 1, SimTime::from_ms(100));
  chain.run(emitter_, external_, internal_, SimTime::zero());
  EXPECT_EQ(emitter_.stage_override(), -1);
}

}  // namespace
}  // namespace idseval::attack
