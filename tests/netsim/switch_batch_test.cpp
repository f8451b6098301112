// Batch-boundary tests for the switch's coalesced fan-out: one same-tick
// batch of N must produce the same stats, mirror copies, and forwarded
// packets as N batches of one, with mirror/stat updates hoisted to one
// per batch; while a source is blocked, packets are admitted one at a
// time.
#include "netsim/switch.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace idseval::netsim {
namespace {

Packet make(Ipv4 src, Ipv4 dst, std::uint64_t seq = 0) {
  FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = 4000;
  t.dst_port = 80;
  Packet p = make_packet(1, 1, SimTime::zero(), t, "x");
  p.seq = seq;
  return p;
}

class SwitchBatchTest : public ::testing::Test {
 protected:
  SwitchBatchTest() : sw_(sim_) {}

  Simulator sim_;
  Switch sw_;
};

TEST_F(SwitchBatchTest, BatchMatchesPerPacketStats) {
  Simulator sim2;
  Switch reference(sim2);
  Link egress_a(sim_, "a", 1e9, SimTime::zero(), 64);
  Link egress_b(sim2, "b", 1e9, SimTime::zero(), 64);
  egress_a.set_deliver_batch([](const Packet*, std::size_t) {});
  egress_b.set_deliver_batch([](const Packet*, std::size_t) {});
  sw_.attach(Ipv4(10, 0, 0, 2), &egress_a);
  reference.attach(Ipv4(10, 0, 0, 2), &egress_b);
  int batch_mirrored = 0;
  int ref_mirrored = 0;
  sw_.add_mirror_batch(per_packet([&](const Packet&) { ++batch_mirrored; }));
  reference.add_mirror_batch(
      per_packet([&](const Packet&) { ++ref_mirrored; }));

  std::vector<Packet> batch;
  for (std::uint64_t i = 0; i < 4; ++i) {
    batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), i));
  }
  sw_.receive_batch(batch.data(), batch.size());
  for (const Packet& p : batch) reference.receive_batch(&p, 1);
  sim_.run_until();
  sim2.run_until();

  EXPECT_EQ(sw_.stats().forwarded, reference.stats().forwarded);
  EXPECT_EQ(sw_.stats().mirrored, reference.stats().mirrored);
  EXPECT_EQ(sw_.stats().no_route, reference.stats().no_route);
  EXPECT_EQ(batch_mirrored, ref_mirrored);
  EXPECT_EQ(egress_a.stats().delivered_packets,
            egress_b.stats().delivered_packets);
}

TEST_F(SwitchBatchTest, EmptyMirrorBatchStillForwards) {
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 64);
  int delivered = 0;
  egress.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);
  std::vector<Packet> batch;
  for (std::uint64_t i = 0; i < 3; ++i) {
    batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), i));
  }
  sw_.receive_batch(batch.data(), batch.size());
  sim_.run_until();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(sw_.stats().forwarded, 3u);
  EXPECT_EQ(sw_.stats().mirrored, 0u);
}

TEST_F(SwitchBatchTest, BatchMirrorSeesWholeBatchOnce) {
  std::vector<std::size_t> batch_sizes;
  int per_packet_copies = 0;
  sw_.add_mirror_batch([&](const Packet*, std::size_t n) {
    batch_sizes.push_back(n);
  });
  sw_.add_mirror_batch(
      per_packet([&](const Packet&) { ++per_packet_copies; }));
  std::vector<Packet> batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9), i));
  }
  sw_.receive_batch(batch.data(), batch.size());
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 5u);
  EXPECT_EQ(per_packet_copies, 5);
  // mirrored counts copies: 2 mirrors x 5 packets.
  EXPECT_EQ(sw_.stats().mirrored, 10u);
}

TEST_F(SwitchBatchTest, BlockedSourceFallsBackPerPacket) {
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 64);
  egress.set_deliver_batch([](const Packet*, std::size_t) {});
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);
  int mirrored = 0;
  sw_.add_mirror_batch(per_packet([&](const Packet&) { ++mirrored; }));
  sw_.block_source(Ipv4(198, 51, 100, 1));
  std::vector<Packet> batch;
  batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 0));
  batch.push_back(make(Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2), 1));
  batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 2));
  sw_.receive_batch(batch.data(), batch.size());
  sim_.run_until();
  // Blocked packet dropped at ingress: not mirrored, not forwarded.
  EXPECT_EQ(sw_.stats().blocked, 1u);
  EXPECT_EQ(sw_.stats().forwarded, 2u);
  EXPECT_EQ(mirrored, 2);
}

TEST_F(SwitchBatchTest, NoRouteCountedPerPacketWithinBatch) {
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 64);
  int delivered = 0;
  egress.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);
  std::vector<Packet> batch;
  batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 0));
  batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 99), 1));
  batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 2));
  sw_.receive_batch(batch.data(), batch.size());
  sim_.run_until();
  EXPECT_EQ(sw_.stats().no_route, 1u);
  EXPECT_EQ(sw_.stats().forwarded, 2u);
  EXPECT_EQ(delivered, 2);
}

TEST_F(SwitchBatchTest, RouteCacheHandlesAlternatingDestinations) {
  Link link_a(sim_, "a", 1e9, SimTime::zero(), 64);
  Link link_b(sim_, "b", 1e9, SimTime::zero(), 64);
  int to_a = 0;
  int to_b = 0;
  link_a.set_deliver_batch(per_packet([&](const Packet&) { ++to_a; }));
  link_b.set_deliver_batch(per_packet([&](const Packet&) { ++to_b; }));
  sw_.attach(Ipv4(10, 0, 0, 2), &link_a);
  sw_.attach(Ipv4(10, 0, 0, 3), &link_b);
  std::vector<Packet> batch;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const Ipv4 dst = i % 2 == 0 ? Ipv4(10, 0, 0, 2) : Ipv4(10, 0, 0, 3);
    batch.push_back(make(Ipv4(10, 0, 0, 1), dst, i));
  }
  sw_.receive_batch(batch.data(), batch.size());
  sim_.run_until();
  EXPECT_EQ(to_a, 3);
  EXPECT_EQ(to_b, 3);
  EXPECT_EQ(sw_.stats().forwarded, 6u);
}

TEST_F(SwitchBatchTest, InlineHookSeesEveryBatchedPacket) {
  Link egress(sim_, "egress", 1e9, SimTime::zero(), 64);
  int delivered = 0;
  egress.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  sw_.attach(Ipv4(10, 0, 0, 2), &egress);
  int inline_seen = 0;
  sw_.set_inline_hook(
      [&](const Packet& p, std::function<void(const Packet&)> fwd) {
        ++inline_seen;
        fwd(p);
      });
  std::vector<Packet> batch;
  for (std::uint64_t i = 0; i < 4; ++i) {
    batch.push_back(make(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), i));
  }
  sw_.receive_batch(batch.data(), batch.size());
  sim_.run_until();
  EXPECT_EQ(inline_seen, 4);
  EXPECT_EQ(delivered, 4);
}

}  // namespace
}  // namespace idseval::netsim
