#include "netsim/link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace idseval::netsim {
namespace {

Packet test_packet(Simulator& sim, std::uint32_t payload_bytes) {
  FiveTuple tuple;
  tuple.src_ip = Ipv4(10, 0, 0, 1);
  tuple.dst_ip = Ipv4(10, 0, 0, 2);
  return make_packet(sim.next_packet_id(), 1, sim.now(), tuple,
                     std::string(payload_bytes, 'x'));
}

TEST(LinkTest, SerializationDelayMatchesBandwidth) {
  Simulator sim;
  Link link(sim, "l", /*bandwidth_bps=*/8e6, SimTime::zero(), 16);
  // 1000 bytes at 8 Mb/s = 1 ms.
  EXPECT_EQ(link.serialization_delay(1000), SimTime::from_ms(1.0));
}

TEST(LinkTest, DeliversAfterSerializationPlusLatency) {
  Simulator sim;
  Link link(sim, "l", 8e6, SimTime::from_ms(2), 16);
  SimTime delivered_at;
  link.set_deliver_batch(
      [&](const Packet*, std::size_t) { delivered_at = sim.now(); });
  const Packet p = test_packet(sim, 960);  // +40B header = 1000B => 1ms
  link.send(p);
  sim.run_until();
  EXPECT_EQ(delivered_at, SimTime::from_ms(3.0));
}

TEST(LinkTest, BackToBackPacketsQueueBehindTransmitter) {
  Simulator sim;
  Link link(sim, "l", 8e6, SimTime::zero(), 16);
  std::vector<double> deliveries;
  link.set_deliver_batch(per_packet([&](const Packet&) {
    deliveries.push_back(sim.now().ms());
  }));
  for (int i = 0; i < 3; ++i) link.send(test_packet(sim, 960));
  sim.run_until();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_DOUBLE_EQ(deliveries[0], 1.0);
  EXPECT_DOUBLE_EQ(deliveries[1], 2.0);
  EXPECT_DOUBLE_EQ(deliveries[2], 3.0);
}

TEST(LinkTest, TailDropsWhenQueueFull) {
  Simulator sim;
  Link link(sim, "l", 8e6, SimTime::zero(), /*queue=*/2);
  int delivered = 0;
  link.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.send(test_packet(sim, 960))) ++accepted;
  }
  sim.run_until();
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().dropped_packets, 8u);
  EXPECT_EQ(link.stats().offered_packets, 10u);
  EXPECT_NEAR(link.stats().drop_ratio(), 0.8, 1e-12);
}

TEST(LinkTest, QueueDrainsOverTime) {
  Simulator sim;
  Link link(sim, "l", 8e6, SimTime::zero(), 2);
  int delivered = 0;
  link.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  link.send(test_packet(sim, 960));
  link.send(test_packet(sim, 960));
  EXPECT_FALSE(link.send(test_packet(sim, 960)));  // full
  sim.run_until();
  // After draining, new sends are accepted again.
  EXPECT_TRUE(link.send(test_packet(sim, 960)));
  sim.run_until();
  EXPECT_EQ(delivered, 3);
}

TEST(LinkTest, StatsCountBytes) {
  Simulator sim;
  Link link(sim, "l", 1e9, SimTime::zero(), 16);
  link.set_deliver_batch([](const Packet*, std::size_t) {});
  const Packet p = test_packet(sim, 100);
  link.send(p);
  sim.run_until();
  EXPECT_EQ(link.stats().offered_bytes, p.wire_bytes());
  EXPECT_EQ(link.stats().delivered_bytes, p.wire_bytes());
}

TEST(LinkTest, ZeroBandwidthMeansNoSerializationDelay) {
  Simulator sim;
  Link link(sim, "l", 0.0, SimTime::from_us(10), 4);
  SimTime delivered_at;
  link.set_deliver_batch(
      [&](const Packet*, std::size_t) { delivered_at = sim.now(); });
  link.send(test_packet(sim, 1000));
  sim.run_until();
  EXPECT_EQ(delivered_at, SimTime::from_us(10));
}

TEST(LinkTest, ResetStatsClearsCounters) {
  Simulator sim;
  Link link(sim, "l", 1e9, SimTime::zero(), 4);
  link.set_deliver_batch([](const Packet*, std::size_t) {});
  link.send(test_packet(sim, 10));
  sim.run_until();
  link.reset_stats();
  EXPECT_EQ(link.stats().offered_packets, 0u);
  EXPECT_EQ(link.stats().delivered_packets, 0u);
}

}  // namespace
}  // namespace idseval::netsim
