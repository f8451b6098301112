#include "attack/emitter.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "attack/patterns.hpp"

namespace idseval::attack {
namespace {

using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

class EmitterTest : public ::testing::Test {
 protected:
  EmitterTest() : net_(sim_), emitter_(sim_, net_, ledger_, 77) {
    victim_ = Ipv4(10, 0, 0, 2);
    attacker_ = Ipv4(198, 51, 100, 1);
    net_.add_host("victim", victim_);
    net_.add_host("other", Ipv4(10, 0, 0, 3));
    net_.add_external_host("attacker", attacker_);
    net_.lan_switch().add_mirror_batch(netsim::per_packet(
        [this](const Packet& p) { seen_.push_back(p); }));
  }

  std::vector<Packet> launch(AttackKind kind) {
    emitter_.launch(kind, attacker_, victim_, SimTime::from_ms(10));
    sim_.run_until();
    return seen_;
  }

  netsim::Simulator sim_;
  netsim::Network net_;
  traffic::TransactionLedger ledger_;
  AttackEmitter emitter_;
  Ipv4 victim_;
  Ipv4 attacker_;
  std::vector<Packet> seen_;
};

TEST_F(EmitterTest, PortScanSweepsManyPorts) {
  const auto packets = launch(AttackKind::kPortScan);
  ASSERT_GE(packets.size(), 60u);
  std::set<std::uint16_t> ports;
  for (const auto& p : packets) {
    EXPECT_TRUE(p.flags.syn);
    ports.insert(p.tuple.dst_port);
  }
  EXPECT_GE(ports.size(), 60u);
}

TEST_F(EmitterTest, SynFloodIsHighRateBareSyn) {
  const auto packets = launch(AttackKind::kSynFlood);
  ASSERT_GE(packets.size(), 400u);
  for (const auto& p : packets) {
    EXPECT_TRUE(p.flags.syn);
    EXPECT_FALSE(p.flags.ack);
    EXPECT_EQ(p.tuple.dst_port, netsim::ports::kHttp);
  }
  // Rate: hundreds of SYNs within well under a second.
  const SimTime span =
      packets.back().created - packets.front().created;
  EXPECT_LT(span, SimTime::from_sec(1.0));
}

TEST_F(EmitterTest, BruteForceCarriesFailureBanner) {
  const auto packets = launch(AttackKind::kBruteForceLogin);
  ASSERT_GE(packets.size(), 30u);
  int banners = 0;
  for (const auto& p : packets) {
    EXPECT_EQ(p.tuple.dst_port, netsim::ports::kTelnet);
    if (p.payload_view().find(patterns::kLoginFailed) !=
        std::string::npos) {
      ++banners;
    }
  }
  EXPECT_GE(banners, 30);
}

TEST_F(EmitterTest, WebExploitContainsPublishedPattern) {
  const auto packets = launch(AttackKind::kWebExploit);
  bool found = false;
  for (const auto& p : packets) {
    const auto& payload = p.payload_view();
    if (payload.find(patterns::kDirTraversal) != std::string::npos ||
        payload.find(patterns::kCmdExe) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EmitterTest, SmtpWormContainsWormMarkers) {
  const auto packets = launch(AttackKind::kSmtpWorm);
  bool subject = false;
  bool attachment = false;
  for (const auto& p : packets) {
    const auto& payload = p.payload_view();
    if (payload.find(patterns::kWormSubject) != std::string::npos) {
      subject = true;
    }
    if (payload.find(patterns::kWormAttachment) != std::string::npos) {
      attachment = true;
    }
  }
  EXPECT_TRUE(subject);
  EXPECT_TRUE(attachment);
}

TEST_F(EmitterTest, NovelExploitAvoidsPublishedPatterns) {
  const auto packets = launch(AttackKind::kNovelExploit);
  ASSERT_FALSE(packets.empty());
  for (const auto& p : packets) {
    for (const auto pattern : patterns::kPublished) {
      EXPECT_EQ(p.payload_view().find(pattern), std::string::npos)
          << "novel exploit must not contain published pattern";
    }
  }
}

TEST_F(EmitterTest, DnsTunnelUsesLongQueries) {
  const auto packets = launch(AttackKind::kDnsTunnel);
  ASSERT_GE(packets.size(), 25u);
  for (const auto& p : packets) {
    EXPECT_EQ(p.tuple.dst_port, netsim::ports::kDns);
    EXPECT_EQ(p.tuple.proto, netsim::Protocol::kUdp);
    EXPECT_GT(p.payload_bytes(), 60u);  // far beyond a normal DNS query
  }
}

TEST_F(EmitterTest, InsiderProbesAdminServices) {
  emitter_.launch(AttackKind::kInsiderMasquerade, Ipv4(10, 0, 0, 3),
                  victim_, SimTime::from_ms(10));
  sim_.run_until();
  std::set<std::uint16_t> ports;
  for (const auto& p : seen_) {
    EXPECT_TRUE(p.tuple.src_ip.in_subnet(Ipv4(10, 0, 0, 0), 8));
    ports.insert(p.tuple.dst_port);
  }
  EXPECT_GE(ports.size(), 4u);
  EXPECT_TRUE(ports.contains(netsim::ports::kTelnet));
}

TEST_F(EmitterTest, EveryKindRegistersLabeledTransaction) {
  for (const auto& t : all_attack_traits()) {
    const std::uint64_t flow = emitter_.launch(
        t.kind, t.insider ? Ipv4(10, 0, 0, 3) : attacker_, victim_,
        sim_.now() + SimTime::from_ms(1));
    const traffic::Transaction* txn = ledger_.find(flow);
    ASSERT_NE(txn, nullptr) << t.name;
    EXPECT_TRUE(txn->is_attack);
    EXPECT_EQ(txn->attack_kind, static_cast<int>(t.kind));
  }
  sim_.run_until();
  EXPECT_EQ(ledger_.attack_count(), kAttackKindCount);
  EXPECT_EQ(emitter_.stats().attacks_launched, kAttackKindCount);
  // Packets were accounted against the transactions.
  for (const traffic::Transaction* txn : ledger_.attacks()) {
    EXPECT_GT(txn->packets, 0u);
  }
}

TEST_F(EmitterTest, DeterministicAcrossRuns) {
  netsim::Simulator sim2;
  netsim::Network net2(sim2);
  net2.add_host("victim", victim_);
  net2.add_host("other", Ipv4(10, 0, 0, 3));
  net2.add_external_host("attacker", attacker_);
  traffic::TransactionLedger ledger2;
  AttackEmitter emitter2(sim2, net2, ledger2, 77);
  std::vector<Packet> seen2;
  net2.lan_switch().add_mirror_batch(netsim::per_packet(
      [&](const Packet& p) { seen2.push_back(p); }));

  emitter_.launch(AttackKind::kPortScan, attacker_, victim_,
                  SimTime::from_ms(5));
  emitter2.launch(AttackKind::kPortScan, attacker_, victim_,
                  SimTime::from_ms(5));
  sim_.run_until();
  sim2.run_until();

  ASSERT_EQ(seen_.size(), seen2.size());
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    EXPECT_EQ(seen_[i].tuple, seen2[i].tuple);
    EXPECT_EQ(seen_[i].created, seen2[i].created);
  }
}

}  // namespace
}  // namespace idseval::attack
