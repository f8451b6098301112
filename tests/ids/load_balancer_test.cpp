#include "ids/load_balancer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ids/sensor.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

Packet flow_packet(netsim::Simulator& sim, std::uint64_t flow,
                   Ipv4 src = Ipv4(198, 51, 100, 1),
                   Ipv4 dst = Ipv4(10, 0, 0, 2),
                   std::uint16_t sport = 4000) {
  FiveTuple t;
  t.src_ip = src;
  t.dst_ip = dst;
  t.src_port = sport;
  t.dst_port = 80;
  return netsim::make_packet(sim.next_packet_id(), flow, sim.now(), t,
                             "payload");
}

/// Hands `packets` to a stage (balancer or sensor) as one batch of N, or
/// as N batches of one.
template <class Stage>
void ingest_all(Stage& stage, const std::vector<Packet>& packets,
                bool one_batch = true) {
  if (one_batch) {
    stage.ingest_batch(packets.data(), packets.size());
    return;
  }
  for (const Packet& p : packets) stage.ingest_batch(&p, 1);
}

LoadBalancerConfig cfg(LbStrategy strategy) {
  LoadBalancerConfig c;
  c.strategy = strategy;
  c.ops_per_packet = 1000.0;
  c.ops_per_sec = 1e9;
  return c;
}

TEST(LoadBalancerTest, NoneRoutesEverythingToSensorZero) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    LoadBalancer lb(sim, cfg(LbStrategy::kNone), 4);
    std::map<std::size_t, int> got;
    lb.set_forward([&](std::size_t idx, const Packet&) { ++got[idx]; });
    std::vector<Packet> packets;
    for (int i = 0; i < 20; ++i) {
      packets.push_back(flow_packet(sim, static_cast<std::uint64_t>(i)));
    }
    ingest_all(lb, packets, one_batch);
    sim.run_until();
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 20);
  }
}

TEST(LoadBalancerTest, FlowHashIsSessionConsistent) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 4);
  std::map<std::uint64_t, std::set<std::size_t>> flow_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    flow_sensors[p.flow_id].insert(idx);
  });
  util::Rng rng(3);
  for (int flow = 0; flow < 50; ++flow) {
    const auto sport = static_cast<std::uint16_t>(rng.uniform_u64(1024,
                                                                  65535));
    for (int pkt = 0; pkt < 10; ++pkt) {
      Packet p = flow_packet(sim, static_cast<std::uint64_t>(flow),
                             Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2),
                             sport);
      ingest_all(lb, {p});
    }
  }
  sim.run_until();
  for (const auto& [flow, sensors] : flow_sensors) {
    EXPECT_EQ(sensors.size(), 1u) << "flow " << flow << " split";
  }
}

TEST(LoadBalancerTest, FlowHashHandlesBothDirections) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 8);
  std::set<std::size_t> sensors;
  lb.set_forward([&](std::size_t idx, const Packet&) {
    sensors.insert(idx);
  });
  Packet fwd = flow_packet(sim, 1);
  Packet rev = fwd;
  std::swap(rev.tuple.src_ip, rev.tuple.dst_ip);
  std::swap(rev.tuple.src_port, rev.tuple.dst_port);
  ingest_all(lb, {fwd});
  ingest_all(lb, {rev});
  sim.run_until();
  EXPECT_EQ(sensors.size(), 1u);  // canonical tuple: same sensor
}

TEST(LoadBalancerTest, FlowHashSpreadsFlows) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kFlowHash), 4);
  lb.set_forward([](std::size_t, const Packet&) {});
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Packet p = flow_packet(
        sim, static_cast<std::uint64_t>(i), Ipv4(198, 51, 100, 1),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + rng.index(8))),
        static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)));
    ingest_all(lb, {p});
  }
  sim.run_until();
  EXPECT_LT(lb.stats().imbalance(), 1.2);
}

TEST(LoadBalancerTest, StaticByHostFollowsDestination) {
  netsim::Simulator sim;
  LoadBalancer lb(sim, cfg(LbStrategy::kStaticByHost), 4);
  std::map<std::uint32_t, std::set<std::size_t>> dst_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    dst_sensors[p.tuple.dst_ip.value()].insert(idx);
  });
  for (int i = 0; i < 100; ++i) {
    Packet p = flow_packet(
        sim, static_cast<std::uint64_t>(i), Ipv4(198, 51, 100, 1),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + i % 8)));
    ingest_all(lb, {p});
  }
  sim.run_until();
  for (const auto& [dst, sensors] : dst_sensors) {
    EXPECT_EQ(sensors.size(), 1u);
  }
}

TEST(LoadBalancerTest, LeastLoadedPrefersShortQueue) {
  netsim::Simulator sim;
  // Two sensors: one slow with a deep backlog, one idle.
  SensorConfig slow;
  slow.base_ops_per_packet = 1e8;
  slow.ops_per_sec = 1e9;
  Sensor busy(sim, slow);
  Sensor idle(sim, slow);
  for (int i = 0; i < 10; ++i) ingest_all(busy, {flow_packet(sim, 1000)});

  LoadBalancer lb(sim, cfg(LbStrategy::kLeastLoaded), 2);
  lb.set_sensors({&busy, &idle});
  std::map<std::size_t, int> got;
  lb.set_forward([&](std::size_t idx, const Packet&) { ++got[idx]; });
  ingest_all(lb, {flow_packet(sim, 1)});  // new flow -> idle sensor (index 1)
  sim.run_until();
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got.count(0), 0u);
}

TEST(LoadBalancerTest, LeastLoadedPinsFlows) {
  netsim::Simulator sim;
  SensorConfig fast;
  Sensor s0(sim, fast);
  Sensor s1(sim, fast);
  LoadBalancer lb(sim, cfg(LbStrategy::kLeastLoaded), 2);
  lb.set_sensors({&s0, &s1});
  std::map<std::uint64_t, std::set<std::size_t>> flow_sensors;
  lb.set_forward([&](std::size_t idx, const Packet& p) {
    flow_sensors[p.flow_id].insert(idx);
  });
  for (int pkt = 0; pkt < 20; ++pkt) {
    ingest_all(lb, {flow_packet(sim, 1)});
    ingest_all(lb, {flow_packet(sim, 2)});
  }
  sim.run_until();
  EXPECT_EQ(flow_sensors[1].size(), 1u);
  EXPECT_EQ(flow_sensors[2].size(), 1u);
}

TEST(LoadBalancerTest, QueueOverflowDrops) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    netsim::Simulator sim;
    LoadBalancerConfig c = cfg(LbStrategy::kFlowHash);
    c.queue_capacity = 8;
    c.ops_per_packet = 1e7;  // 10ms each — queue fills instantly
    LoadBalancer lb(sim, c, 2);
    lb.set_forward([](std::size_t, const Packet&) {});
    std::vector<Packet> packets;
    for (int i = 0; i < 20; ++i) {
      packets.push_back(flow_packet(sim, static_cast<std::uint64_t>(i)));
    }
    ingest_all(lb, packets, one_batch);
    EXPECT_EQ(lb.stats().offered, 20u);
    EXPECT_EQ(lb.stats().dropped, 12u);
    sim.run_until();
    EXPECT_EQ(lb.stats().forwarded, 8u);
  }
}

TEST(LoadBalancerTest, ImbalanceComputation) {
  LoadBalancerStats stats;
  stats.per_sensor = {100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
  stats.per_sensor = {400, 0, 0, 0};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 4.0);
  stats.per_sensor = {};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
}

TEST(LoadBalancerTest, ServiceTimeFromOps) {
  netsim::Simulator sim;
  LoadBalancerConfig c = cfg(LbStrategy::kNone);
  c.ops_per_packet = 2000.0;
  c.ops_per_sec = 2e6;
  LoadBalancer lb(sim, c, 1);
  EXPECT_EQ(lb.service_time(), SimTime::from_ms(1.0));
}

TEST(LoadBalancerTest, StrategyNames) {
  EXPECT_EQ(to_string(LbStrategy::kNone), "none");
  EXPECT_EQ(to_string(LbStrategy::kStaticByHost), "static-by-host");
  EXPECT_EQ(to_string(LbStrategy::kFlowHash), "flow-hash");
  EXPECT_EQ(to_string(LbStrategy::kLeastLoaded), "least-loaded");
}

}  // namespace
}  // namespace idseval::ids
