// Batch-boundary tests for the link's coalesced delivery path: same-tick
// arrivals must form one delivery group, adjacent-tick arrivals must not,
// and the coalescing-off reference path must produce identical stats and
// delivery order — the equivalence the golden-hash test relies on.
#include "netsim/link.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace idseval::netsim {
namespace {

Packet test_packet(Simulator& sim, std::uint32_t payload_bytes,
                   std::uint64_t seq = 0) {
  FiveTuple tuple;
  tuple.src_ip = Ipv4(10, 0, 0, 1);
  tuple.dst_ip = Ipv4(10, 0, 0, 2);
  Packet p = make_packet(sim.next_packet_id(), 1, sim.now(), tuple,
                         std::string(payload_bytes, 'x'));
  p.seq = seq;
  return p;
}

TEST(LinkBatchTest, SameTickArrivalsCoalesceIntoOneBatch) {
  Simulator sim;
  // Zero bandwidth: no serialization delay, so back-to-back sends all
  // arrive on the same tick (latency only).
  Link link(sim, "l", 0.0, SimTime::from_us(10), 16);
  std::vector<std::size_t> batch_sizes;
  link.set_deliver_batch([&](const Packet*, std::size_t n) {
    batch_sizes.push_back(n);
  });
  for (std::uint64_t i = 0; i < 5; ++i) link.send(test_packet(sim, 100, i));
  sim.run_until();
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 5u);
  EXPECT_EQ(link.stats().delivered_packets, 5u);
}

TEST(LinkBatchTest, AdjacentTickArrivalsStaySeparate) {
  Simulator sim;
  // Finite bandwidth: serialization separates arrival ticks, so each
  // packet is its own singleton group.
  Link link(sim, "l", 8e6, SimTime::zero(), 16);
  std::vector<std::size_t> batch_sizes;
  link.set_deliver_batch([&](const Packet*, std::size_t n) {
    batch_sizes.push_back(n);
  });
  for (int i = 0; i < 3; ++i) link.send(test_packet(sim, 960));
  sim.run_until();
  ASSERT_EQ(batch_sizes.size(), 3u);
  for (const std::size_t n : batch_sizes) EXPECT_EQ(n, 1u);
}

TEST(LinkBatchTest, BatchPreservesIntraTickSeqOrder) {
  Simulator sim;
  Link link(sim, "l", 0.0, SimTime::from_us(10), 16);
  std::vector<std::uint64_t> seqs;
  link.set_deliver_batch([&](const Packet* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) seqs.push_back(p[i].seq);
  });
  for (std::uint64_t i = 0; i < 6; ++i) link.send(test_packet(sim, 64, i));
  sim.run_until();
  ASSERT_EQ(seqs.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(LinkBatchTest, CoalescingOffMatchesBatchedStatsAndOrder) {
  // Identical traffic through a coalescing link and through the
  // single-packet reference path: byte/packet stats and the delivered
  // order must agree; only the batch granularity differs.
  auto run = [](bool coalesce, std::vector<std::uint64_t>& order,
                std::vector<std::size_t>& sizes) {
    Simulator sim;
    Link link(sim, "l", 0.0, SimTime::from_us(10), 16);
    link.set_coalescing(coalesce);
    link.set_deliver_batch([&](const Packet* p, std::size_t n) {
      sizes.push_back(n);
      for (std::size_t i = 0; i < n; ++i) order.push_back(p[i].seq);
    });
    for (std::uint64_t i = 0; i < 4; ++i) link.send(test_packet(sim, 200, i));
    sim.run_until();
    return link.stats();
  };
  std::vector<std::uint64_t> on_order, off_order;
  std::vector<std::size_t> on_sizes, off_sizes;
  const LinkStats on = run(true, on_order, on_sizes);
  const LinkStats off = run(false, off_order, off_sizes);
  EXPECT_EQ(on.offered_packets, off.offered_packets);
  EXPECT_EQ(on.delivered_packets, off.delivered_packets);
  EXPECT_EQ(on.delivered_bytes, off.delivered_bytes);
  EXPECT_EQ(on_order, off_order);
  ASSERT_EQ(on_sizes.size(), 1u);  // one coalesced group
  EXPECT_EQ(on_sizes[0], 4u);
  ASSERT_EQ(off_sizes.size(), 4u);  // four singleton groups
  for (const std::size_t n : off_sizes) EXPECT_EQ(n, 1u);
}

TEST(LinkBatchTest, LazySlotReleaseFreesQueueBeforeDelivery) {
  Simulator sim;
  // 1000B at 8 Mb/s = 1 ms serialization; 10 ms propagation. Slots free
  // at tx-done (1 ms, 2 ms) even though delivery happens at 11/12 ms.
  Link link(sim, "l", 8e6, SimTime::from_ms(10), /*queue=*/2);
  int delivered = 0;
  link.set_deliver_batch(per_packet([&](const Packet&) { ++delivered; }));
  link.send(test_packet(sim, 960));
  link.send(test_packet(sim, 960));
  EXPECT_FALSE(link.send(test_packet(sim, 960)));  // full
  bool accepted_mid_flight = false;
  sim.schedule_in(SimTime::from_ms(5), [&] {
    // Both tx-done times have passed; nothing has been delivered yet.
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(link.queue_depth(), 0u);
    accepted_mid_flight = link.send(test_packet(sim, 960));
  });
  sim.run_until();
  EXPECT_TRUE(accepted_mid_flight);
  EXPECT_EQ(delivered, 3);
}

TEST(LinkBatchTest, CoalescedGroupAccountsBytesOnce) {
  Simulator sim;
  Link link(sim, "l", 0.0, SimTime::from_us(1), 16);
  std::size_t seen = 0;
  link.set_deliver_batch([&](const Packet*, std::size_t n) { seen += n; });
  std::uint64_t expected_bytes = 0;
  for (std::uint32_t bytes : {64u, 512u, 1400u}) {
    const Packet p = test_packet(sim, bytes);
    expected_bytes += p.wire_bytes();
    link.send(p);
  }
  sim.run_until();
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(link.stats().delivered_packets, 3u);
  EXPECT_EQ(link.stats().delivered_bytes, expected_bytes);
}

}  // namespace
}  // namespace idseval::netsim
