// Statistical properties of the traffic generator, parameterized over
// the built-in environment profiles: protocol mix honored, burstiness
// visible in arrival variance, payload regularity matching the profile's
// jitter. These are the properties the §4 lessons depend on — a profile
// that silently generated the wrong mix would invalidate every
// environment-specific measurement downstream.
#include <gtest/gtest.h>

#include <map>

#include "ids/anomaly_engine.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/profile.hpp"
#include "util/stats.hpp"
#include "util/strfmt.hpp"

namespace idseval::traffic {
namespace {

using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

struct Capture {
  std::vector<double> arrival_times_sec;
  std::map<std::uint16_t, std::size_t> flows_by_port;
  util::RunningStats payload_bytes;
  std::map<std::uint64_t, bool> seen_flow;
};

Capture run_profile(const EnvironmentProfile& profile, std::uint64_t seed,
                    double seconds = 20.0) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::vector<Ipv4> internal;
  for (int i = 1; i <= 6; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
    net.add_host(util::cat("h", i), addr);
    internal.push_back(addr);
  }
  const Ipv4 ext(198, 51, 100, 1);
  net.add_external_host("ext", ext);

  Capture capture;
  net.lan_switch().add_mirror_batch(netsim::per_packet([&](const Packet& p) {
    if (!capture.seen_flow[p.flow_id]) {
      capture.seen_flow[p.flow_id] = true;
      capture.arrival_times_sec.push_back(sim.now().sec());
      ++capture.flows_by_port[p.tuple.dst_port];
    }
    if (p.payload_bytes() > 0) {
      capture.payload_bytes.add(static_cast<double>(p.payload_bytes()));
    }
  }));

  TransactionLedger ledger;
  FlowGenerator gen(sim, net, &ledger, profile, seed);
  gen.set_internal_hosts(internal);
  gen.set_external_hosts({ext});
  gen.start(SimTime::from_sec(seconds));
  sim.run_until(SimTime::from_sec(seconds + 2.0));
  return capture;
}

class ProfileProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileProperty, ProtocolMixHonored) {
  const EnvironmentProfile profile = profile_by_name(GetParam());
  const Capture capture = run_profile(profile, 77);
  ASSERT_GT(capture.seen_flow.size(), 100u);

  double total_weight = 0.0;
  for (const auto& share : profile.mix) total_weight += share.weight;
  const double total_flows =
      static_cast<double>(capture.seen_flow.size());

  // Aggregate expected share per destination port (several mix entries
  // may target one port).
  std::map<std::uint16_t, double> expected;
  for (const auto& share : profile.mix) {
    expected[share.dst_port] += share.weight / total_weight;
  }
  for (const auto& [port, exp_share] : expected) {
    const auto it = capture.flows_by_port.find(port);
    const double got =
        it == capture.flows_by_port.end()
            ? 0.0
            : static_cast<double>(it->second) / total_flows;
    EXPECT_NEAR(got, exp_share, 0.08)
        << GetParam() << " port " << port;
  }
}

TEST_P(ProfileProperty, PayloadSizesTrackProfileMean) {
  const EnvironmentProfile profile = profile_by_name(GetParam());
  const Capture capture = run_profile(profile, 11);
  ASSERT_GT(capture.payload_bytes.count(), 500u);
  // Means are clamped/truncated by synthesis, so allow a wide band.
  EXPECT_GT(capture.payload_bytes.mean(), profile.mean_payload_bytes * 0.4)
      << GetParam();
  EXPECT_LT(capture.payload_bytes.mean(), profile.mean_payload_bytes * 2.5)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileProperty,
                         ::testing::Values("rt_cluster", "ecommerce",
                                           "office", "random_flood",
                                           "megaflow", "ics", "canbus"));

TEST(ProfilePropertyTest, IcsProfilePinsControlLoopShape) {
  const EnvironmentProfile ics = profile_by_name("ics");
  EXPECT_EQ(ics.name, "ics");
  // Periodic control loops: no burst state, near-constant frame sizes,
  // essentially no external traffic. These are the properties the ics
  // kill-chain preset and the anomaly-baseline experiments assume.
  EXPECT_DOUBLE_EQ(ics.burst_fraction, 0.0);
  EXPECT_LE(ics.payload_jitter, 0.1);
  EXPECT_LE(ics.external_fraction, 0.05);
  // Modbus-style control traffic dominates the mix.
  double control_weight = 0.0;
  double total_weight = 0.0;
  for (const auto& share : ics.mix) {
    total_weight += share.weight;
    if (share.dst_port == netsim::ports::kModbus) {
      control_weight += share.weight;
    }
  }
  EXPECT_GT(control_weight / total_weight, 0.8);
}

TEST(ProfilePropertyTest, CanbusProfilePinsTinyFixedFrames) {
  const EnvironmentProfile can = profile_by_name("canbus");
  EXPECT_EQ(can.name, "canbus");
  // A bridged CAN segment: high frame rate, tiny fixed-size frames,
  // nothing external, zero payload-size variance.
  EXPECT_GE(can.flows_per_sec, 200.0);
  EXPECT_LE(can.mean_payload_bytes, 64.0);
  EXPECT_DOUBLE_EQ(can.payload_jitter, 0.0);
  EXPECT_DOUBLE_EQ(can.external_fraction, 0.0);
  double frame_weight = 0.0;
  double total_weight = 0.0;
  for (const auto& share : can.mix) {
    total_weight += share.weight;
    if (share.dst_port == netsim::ports::kCanBus) {
      frame_weight += share.weight;
    }
  }
  EXPECT_GT(frame_weight / total_weight, 0.9);
}

TEST(ProfilePropertyTest, CanbusFramesHaveNoSizeDispersion) {
  // Zero jitter plus a fixed frame family must show up on the wire as a
  // much tighter size distribution than any enterprise profile.
  const Capture can = run_profile(canbus_profile(), 3);
  const Capture office = run_profile(office_profile(), 3);
  const double can_cv =
      can.payload_bytes.stddev() / can.payload_bytes.mean();
  const double office_cv =
      office.payload_bytes.stddev() / office.payload_bytes.mean();
  EXPECT_LT(can_cv, office_cv * 0.5);
}

TEST(ProfilePropertyTest, BurstyProfileHasHigherArrivalVariance) {
  // Compare inter-arrival dispersion of the bursty e-commerce profile
  // with a de-burst variant of itself: MMPP must show over-dispersion.
  EnvironmentProfile bursty = ecommerce_profile();
  EnvironmentProfile smooth = bursty;
  smooth.burst_fraction = 0.0;
  smooth.burst_factor = 1.0;

  auto dispersion = [](const Capture& c) {
    util::RunningStats gaps;
    for (std::size_t i = 1; i < c.arrival_times_sec.size(); ++i) {
      gaps.add(c.arrival_times_sec[i] - c.arrival_times_sec[i - 1]);
    }
    // Coefficient of variation squared: 1 for Poisson, >1 for MMPP.
    const double mean = gaps.mean();
    return gaps.variance() / (mean * mean);
  };

  const double bursty_cv2 = dispersion(run_profile(bursty, 5, 40.0));
  const double smooth_cv2 = dispersion(run_profile(smooth, 5, 40.0));
  EXPECT_GT(bursty_cv2, smooth_cv2 * 1.2);
  EXPECT_NEAR(smooth_cv2, 1.0, 0.35);  // pure Poisson
}

TEST(ProfilePropertyTest, ClusterPayloadsAreLowEntropyAndRegular) {
  // The §2.1 maxim: the constrained cluster environment has tight,
  // learnable payload structure; the random flood is the opposite.
  const Capture cluster = run_profile(rt_cluster_profile(), 3);
  const Capture flood = run_profile(random_flood_profile(), 3);
  // Relative payload-size dispersion: cluster much tighter.
  const double cluster_cv =
      cluster.payload_bytes.stddev() / cluster.payload_bytes.mean();
  const double flood_cv =
      flood.payload_bytes.stddev() / flood.payload_bytes.mean();
  EXPECT_LT(cluster_cv, flood_cv);
}

}  // namespace
}  // namespace idseval::traffic
