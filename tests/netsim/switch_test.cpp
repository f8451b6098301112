#include "netsim/switch.hpp"

#include <gtest/gtest.h>

#include "netsim/network.hpp"

namespace idseval::netsim {
namespace {

Packet make(Ipv4 src, Ipv4 dst, std::uint16_t dst_port = 80) {
  FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = 4000;
  t.dst_port = dst_port;
  return make_packet(1, 1, SimTime::zero(), t, "x");
}

/// A lone arrival is a batch of one.
void receive_one(Switch& sw, const Packet& p) { sw.receive_batch(&p, 1); }

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : sw_(sim_) {}

  Simulator sim_;
  Switch sw_;
};

TEST_F(SwitchTest, NoRouteCounted) {
  receive_one(sw_, make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9)));
  EXPECT_EQ(sw_.stats().no_route, 1u);
  EXPECT_EQ(sw_.stats().forwarded, 0u);
}

TEST_F(SwitchTest, ForwardsViaAttachedEgress) {
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 8);
  int delivered = 0;
  egress.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);
  receive_one(sw_, make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2)));
  sim_.run_until();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sw_.stats().forwarded, 1u);
}

TEST_F(SwitchTest, MultipleMirrorsAllSeeEachPacket) {
  int a = 0;
  int b = 0;
  sw_.add_mirror_batch(per_packet([&](const Packet&) { ++a; }));
  sw_.add_mirror_batch(per_packet([&](const Packet&) { ++b; }));
  receive_one(sw_, make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2)));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(sw_.stats().mirrored, 2u);
}

TEST_F(SwitchTest, BlockedPacketsNotMirrored) {
  // The block list runs at ingress, before the SPAN copy: a blocked
  // source is invisible to the IDS too (it cannot re-alert on traffic
  // the firewall already discarded).
  int mirrored = 0;
  sw_.add_mirror_batch(per_packet([&](const Packet&) { ++mirrored; }));
  sw_.block_source(Ipv4(198, 51, 100, 1));
  receive_one(sw_, make(Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2)));
  EXPECT_EQ(mirrored, 0);
  EXPECT_EQ(sw_.stats().blocked, 1u);
}

TEST_F(SwitchTest, MirrorSeesPacketBeforeInlineDelay) {
  // SPAN copy is taken at ingress; the in-line device only delays the
  // forwarded copy.
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 8);
  SimTime delivered_at;
  egress.set_deliver_batch(
      per_packet([&](const Packet&) { delivered_at = sim_.now(); }));
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);

  SimTime mirrored_at = SimTime::max();
  sw_.add_mirror_batch(
      per_packet([&](const Packet&) { mirrored_at = sim_.now(); }));
  sw_.set_inline_hook(
      [this](const Packet& p, std::function<void(const Packet&)> fwd) {
        sim_.schedule_in(SimTime::from_ms(5), [p, fwd] { fwd(p); });
      });

  receive_one(sw_, make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2)));
  sim_.run_until();
  EXPECT_EQ(mirrored_at, SimTime::zero());
  EXPECT_GE(delivered_at, SimTime::from_ms(5));
}

TEST_F(SwitchTest, BlockListIsPerSource) {
  sw_.block_source(Ipv4(198, 51, 100, 1));
  EXPECT_TRUE(sw_.is_blocked(Ipv4(198, 51, 100, 1)));
  EXPECT_FALSE(sw_.is_blocked(Ipv4(198, 51, 100, 2)));
  EXPECT_EQ(sw_.blocked_count(), 1u);
  sw_.block_source(Ipv4(198, 51, 100, 1));  // idempotent
  EXPECT_EQ(sw_.blocked_count(), 1u);
  sw_.unblock_source(Ipv4(198, 51, 100, 1));
  EXPECT_FALSE(sw_.is_blocked(Ipv4(198, 51, 100, 1)));
}

TEST_F(SwitchTest, InlineHookReceivesEveryNonBlockedPacket) {
  int inline_seen = 0;
  sw_.set_inline_hook(
      [&](const Packet&, std::function<void(const Packet&)>) {
        ++inline_seen;
      });
  sw_.block_source(Ipv4(198, 51, 100, 1));
  receive_one(sw_, make(Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2)));  // blocked
  receive_one(sw_, make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2)));
  EXPECT_EQ(inline_seen, 1);
}

}  // namespace
}  // namespace idseval::netsim
