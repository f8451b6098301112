#include "traffic/flowgen.hpp"

#include <gtest/gtest.h>

#include <map>

#include "traffic/profile.hpp"
#include "util/strfmt.hpp"

namespace idseval::traffic {
namespace {

using netsim::Ipv4;
using netsim::SimTime;

class FlowGenTest : public ::testing::Test {
 protected:
  FlowGenTest() : net_(sim_) {
    for (int i = 1; i <= 4; ++i) {
      const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
      net_.add_host(util::cat("h", i), addr);
      internal_.push_back(addr);
    }
    const Ipv4 ext(198, 51, 100, 1);
    net_.add_external_host("ext", ext);
    external_.push_back(ext);
  }

  FlowGenerator make(const EnvironmentProfile& profile,
                     std::uint64_t seed = 7) {
    FlowGenerator gen(sim_, net_, &ledger_, profile, seed);
    gen.set_internal_hosts(internal_);
    gen.set_external_hosts(external_);
    return gen;
  }

  netsim::Simulator sim_;
  netsim::Network net_;
  TransactionLedger ledger_;
  std::vector<Ipv4> internal_;
  std::vector<Ipv4> external_;
};

TEST_F(FlowGenTest, GeneratesApproximateArrivalRate) {
  auto gen = make(office_profile());
  gen.start(SimTime::from_sec(10));
  sim_.run_until(SimTime::from_sec(12));
  // office profile: 40 flows/s nominal over 10 s.
  EXPECT_NEAR(static_cast<double>(gen.stats().flows_started), 400.0, 120.0);
  EXPECT_GT(gen.stats().packets_emitted, gen.stats().flows_started);
}

TEST_F(FlowGenTest, RateScaleScalesArrivals) {
  auto base = make(office_profile(), 3);
  base.start(SimTime::from_sec(10));
  sim_.run_until(SimTime::from_sec(12));
  const auto base_flows = base.stats().flows_started;

  netsim::Simulator sim2;
  netsim::Network net2(sim2);
  std::vector<Ipv4> hosts;
  for (int i = 1; i <= 4; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
    net2.add_host(util::cat("h", i), addr);
    hosts.push_back(addr);
  }
  TransactionLedger ledger2;
  FlowGenerator scaled(sim2, net2, &ledger2, office_profile(), 3);
  scaled.set_internal_hosts(hosts);
  scaled.set_rate_scale(3.0);
  scaled.start(SimTime::from_sec(10));
  sim2.run_until(SimTime::from_sec(12));

  // Bursty arrivals make exact ratios noisy; check the scaling factor is
  // clearly ~3x and not ~1x.
  const double ratio = static_cast<double>(scaled.stats().flows_started) /
                       static_cast<double>(base_flows);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.2);
}

TEST_F(FlowGenTest, DeterministicForSameSeed) {
  auto a = make(rt_cluster_profile(), 42);
  a.start(SimTime::from_sec(3));
  sim_.run_until(SimTime::from_sec(4));

  netsim::Simulator sim2;
  netsim::Network net2(sim2);
  std::vector<Ipv4> hosts;
  for (int i = 1; i <= 4; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
    net2.add_host(util::cat("h", i), addr);
    hosts.push_back(addr);
  }
  const Ipv4 ext(198, 51, 100, 1);
  net2.add_external_host("ext", ext);
  TransactionLedger ledger2;
  FlowGenerator b(sim2, net2, &ledger2, rt_cluster_profile(), 42);
  b.set_internal_hosts(hosts);
  b.set_external_hosts({ext});
  b.start(SimTime::from_sec(3));
  sim2.run_until(SimTime::from_sec(4));

  EXPECT_EQ(a.stats().flows_started, b.stats().flows_started);
  EXPECT_EQ(a.stats().packets_emitted, b.stats().packets_emitted);
  EXPECT_EQ(a.stats().bytes_emitted, b.stats().bytes_emitted);
}

TEST_F(FlowGenTest, LedgerMatchesEmissions) {
  auto gen = make(office_profile());
  gen.start(SimTime::from_sec(5));
  sim_.run_until(SimTime::from_sec(7));
  EXPECT_EQ(ledger_.size(), gen.stats().flows_started);
  EXPECT_EQ(ledger_.attack_count(), 0u);
  std::uint64_t ledger_packets = 0;
  for (const Transaction* t : ledger_.all()) ledger_packets += t->packets;
  EXPECT_EQ(ledger_packets, gen.stats().packets_emitted);
}

TEST_F(FlowGenTest, DestinationsAreInternal) {
  auto gen = make(ecommerce_profile());
  gen.start(SimTime::from_sec(3));
  sim_.run_until(SimTime::from_sec(4));
  for (const Transaction* t : ledger_.all()) {
    EXPECT_TRUE(t->tuple.dst_ip.in_subnet(Ipv4(10, 0, 0, 0), 8))
        << t->tuple.to_string();
  }
}

TEST_F(FlowGenTest, ExternalFractionRoughlyHonored) {
  auto gen = make(ecommerce_profile());  // external_fraction = 0.85
  gen.start(SimTime::from_sec(10));
  sim_.run_until(SimTime::from_sec(12));
  std::size_t external_flows = 0;
  for (const Transaction* t : ledger_.all()) {
    if (!t->tuple.src_ip.in_subnet(Ipv4(10, 0, 0, 0), 8)) ++external_flows;
  }
  const double fraction = static_cast<double>(external_flows) /
                          static_cast<double>(ledger_.size());
  EXPECT_NEAR(fraction, 0.85, 0.08);
}

TEST_F(FlowGenTest, ZipfSkewConcentratesDestinations) {
  EnvironmentProfile profile = office_profile();
  profile.dest_zipf_s = 1.5;
  auto gen = make(profile);
  gen.start(SimTime::from_sec(10));
  sim_.run_until(SimTime::from_sec(12));
  std::map<std::uint32_t, int> counts;
  for (const Transaction* t : ledger_.all()) {
    ++counts[t->tuple.dst_ip.value()];
  }
  const int first = counts[Ipv4(10, 0, 0, 1).value()];
  const int last = counts[Ipv4(10, 0, 0, 4).value()];
  EXPECT_GT(first, 2 * last);
}

TEST_F(FlowGenTest, TcpFlowsCarrySynAndFin) {
  // Collect packets at a host and check flag discipline per flow.
  std::map<std::uint64_t, std::vector<netsim::TcpFlags>> flows;
  for (const Ipv4 addr : internal_) {
    net_.find_host(addr)->add_receiver_batch(
        netsim::per_packet([&](const netsim::Packet& p) {
          if (p.tuple.proto == netsim::Protocol::kTcp) {
            flows[p.flow_id].push_back(p.flags);
          }
        }));
  }
  auto gen = make(office_profile());
  gen.start(SimTime::from_sec(3));
  sim_.run_until(SimTime::from_sec(6));
  ASSERT_FALSE(flows.empty());
  for (const auto& [flow, flags] : flows) {
    EXPECT_TRUE(flags.front().syn) << "flow " << flow;
    EXPECT_TRUE(flags.back().fin || flags.size() == 1) << "flow " << flow;
  }
}

TEST_F(FlowGenTest, StartWithoutHostsThrows) {
  FlowGenerator gen(sim_, net_, &ledger_, office_profile(), 1);
  EXPECT_THROW(gen.start(SimTime::from_sec(1)), std::logic_error);
}

TEST_F(FlowGenTest, EmptyMixThrows) {
  EnvironmentProfile profile = office_profile();
  profile.mix.clear();
  EXPECT_THROW(FlowGenerator(sim_, net_, &ledger_, profile, 1),
               std::invalid_argument);
}

TEST(ProfileTest, BuiltinsResolvable) {
  EXPECT_EQ(profile_by_name("rt_cluster").name, "rt_cluster");
  EXPECT_EQ(profile_by_name("ecommerce").name, "ecommerce");
  EXPECT_EQ(profile_by_name("office").name, "office");
  EXPECT_EQ(profile_by_name("random_flood").name, "random_flood");
  EXPECT_THROW(profile_by_name("nope"), std::invalid_argument);
}

TEST(ProfileTest, MixWeightsArePositive) {
  for (const auto& name :
       {"rt_cluster", "ecommerce", "office", "random_flood"}) {
    const EnvironmentProfile p = profile_by_name(name);
    ASSERT_FALSE(p.mix.empty());
    for (const auto& share : p.mix) EXPECT_GT(share.weight, 0.0);
  }
}

TEST(ProfileTest, RtClusterIsMostlyInternalRegularTraffic) {
  const EnvironmentProfile p = rt_cluster_profile();
  EXPECT_LT(p.external_fraction, 0.1);
  EXPECT_LT(p.payload_jitter, 0.2);
  double rpc_weight = 0.0;
  double total = 0.0;
  for (const auto& share : p.mix) {
    total += share.weight;
    if (share.kind == PayloadKind::kClusterRpc) rpc_weight += share.weight;
  }
  EXPECT_GT(rpc_weight / total, 0.7);
}

}  // namespace
}  // namespace idseval::traffic
