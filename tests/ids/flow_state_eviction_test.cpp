// Per-flow state eviction on flow end (FIN/RST): the load balancer's
// kLeastLoaded session pins and the monitor's duplicate-suppression
// records are released when a flow closes, so long runs track *live*
// flows instead of every flow ever seen. Covers the direct component
// APIs and the pipeline wiring (including the batched same-tick path).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ids/load_balancer.hpp"
#include "ids/monitor.hpp"
#include "ids/pipeline.hpp"
#include "ids/sensor.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;
using netsim::TcpFlags;

Packet flow_packet(netsim::Simulator& sim, std::uint64_t flow,
                   TcpFlags flags = {}) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = static_cast<std::uint16_t>(4000 + flow % 60000);
  t.dst_port = 80;
  return netsim::make_packet(sim.next_packet_id(), flow, sim.now(), t,
                             "payload", flags);
}

SensorConfig fast_sensor() {
  SensorConfig c;
  c.base_ops_per_packet = 1000.0;
  c.ops_per_sec = 1e9;
  return c;
}

struct LeastLoadedRig {
  netsim::Simulator sim;
  Sensor s0;
  Sensor s1;
  LoadBalancer lb;

  LeastLoadedRig()
      : s0(sim, fast_sensor()),
        s1(sim, fast_sensor()),
        lb(sim,
           [] {
             LoadBalancerConfig c;
             c.strategy = LbStrategy::kLeastLoaded;
             c.ops_per_packet = 1000.0;
             c.ops_per_sec = 1e9;
             return c;
           }(),
           2) {
    lb.set_sensors({&s0, &s1});
    lb.set_forward([](std::size_t, const Packet&) {});
  }
};

/// Hands `packets` to the balancer as one batch of N, or as N batches of
/// one.
void ingest_all(LoadBalancer& lb, const std::vector<Packet>& packets,
                bool one_batch) {
  if (one_batch) {
    lb.ingest_batch(packets.data(), packets.size());
    return;
  }
  for (const Packet& p : packets) lb.ingest_batch(&p, 1);
}

TEST(FlowStateEvictionTest, LeastLoadedPinsReleasedOnFin) {
  for (const bool one_batch : {true, false}) {
    SCOPED_TRACE(one_batch ? "one batch" : "batches of one");
    LeastLoadedRig rig;
    constexpr std::uint64_t kFlows = 10;
    std::vector<Packet> opens;
    for (std::uint64_t flow = 1; flow <= kFlows; ++flow) {
      opens.push_back(flow_packet(rig.sim, flow));
      opens.push_back(flow_packet(rig.sim, flow));
    }
    ingest_all(rig.lb, opens, one_batch);
    rig.sim.run_until();
    EXPECT_EQ(rig.lb.pins_live(), kFlows);
    EXPECT_EQ(rig.lb.stats().pin_evictions, 0u);

    TcpFlags fin;
    fin.fin = true;
    std::vector<Packet> fins;
    for (std::uint64_t flow = 1; flow <= kFlows; ++flow) {
      fins.push_back(flow_packet(rig.sim, flow, fin));
    }
    ingest_all(rig.lb, fins, one_batch);
    rig.sim.run_until();
    EXPECT_EQ(rig.lb.pins_live(), 0u);
    EXPECT_EQ(rig.lb.stats().pin_evictions, kFlows);
  }
}

TEST(FlowStateEvictionTest, SinglePacketRstFlowIsNeverPinned) {
  LeastLoadedRig rig;
  TcpFlags rst;
  rst.rst = true;
  ingest_all(rig.lb, {flow_packet(rig.sim, 1, rst)}, true);
  rig.sim.run_until();
  EXPECT_EQ(rig.lb.pins_live(), 0u);
  // Nothing was pinned, so nothing was evicted either.
  EXPECT_EQ(rig.lb.stats().pin_evictions, 0u);
  EXPECT_EQ(rig.lb.stats().forwarded, 1u);
}

TEST(FlowStateEvictionTest, PinTableStaysFlatUnderFlowChurn) {
  LeastLoadedRig rig;
  TcpFlags fin;
  fin.fin = true;
  constexpr std::uint64_t kFlows = 2000;
  std::size_t peak_pins = 0;
  for (std::uint64_t flow = 1; flow <= kFlows; ++flow) {
    ingest_all(rig.lb, {flow_packet(rig.sim, flow)}, true);
    ingest_all(rig.lb, {flow_packet(rig.sim, flow, fin)}, true);
    peak_pins = std::max(peak_pins, rig.lb.pins_live());
  }
  rig.sim.run_until();
  // Bounded by concurrently-open flows (here: one), not total flows.
  EXPECT_LE(peak_pins, 2u);
  EXPECT_EQ(rig.lb.pins_live(), 0u);
  EXPECT_EQ(rig.lb.stats().pin_evictions, kFlows);
}

ThreatReport report_for(std::uint64_t flow, int severity,
                        netsim::Simulator& sim) {
  ThreatReport r;
  r.primary.flow_id = flow;
  r.primary.rule = "test-rule";
  r.primary.when = sim.now();
  r.primary.severity = severity;
  r.severity = severity;
  r.when = sim.now();
  return r;
}

TEST(FlowStateEvictionTest, MonitorEvictsDedupRecordButKeepsScoringSet) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.notification_delay = SimTime::from_ms(1);
  cfg.evict_on_flow_end = true;
  Monitor monitor(sim, cfg);

  monitor.submit(report_for(7, 3, sim));
  monitor.submit(report_for(7, 3, sim));  // duplicate while flow lives
  sim.run_until();
  EXPECT_EQ(monitor.stats().alerts_raised, 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);
  EXPECT_EQ(monitor.tracked_flows(), 1u);

  monitor.flow_ended(7);
  EXPECT_EQ(monitor.tracked_flows(), 0u);
  EXPECT_EQ(monitor.stats().evicted_flows, 1u);
  // The scoring set D survives eviction — the flow stays detected.
  EXPECT_EQ(monitor.alerted_flows().count(7), 1u);

  // Ending an untracked flow is a no-op, not an eviction.
  monitor.flow_ended(999);
  EXPECT_EQ(monitor.stats().evicted_flows, 1u);

  // A straggler report after eviction re-alerts (the documented cost of
  // the bounded-memory mode).
  monitor.submit(report_for(7, 3, sim));
  sim.run_until();
  EXPECT_EQ(monitor.stats().alerts_raised, 2u);
}

TEST(FlowStateEvictionTest, MonitorEvictionIsGatedOffByDefault) {
  netsim::Simulator sim;
  MonitorConfig cfg;
  cfg.notification_delay = SimTime::from_ms(1);
  Monitor monitor(sim, cfg);
  ASSERT_FALSE(cfg.evict_on_flow_end);

  monitor.submit(report_for(7, 3, sim));
  sim.run_until();
  monitor.flow_ended(7);
  EXPECT_EQ(monitor.tracked_flows(), 1u);
  EXPECT_EQ(monitor.stats().evicted_flows, 0u);

  // Straggler stays suppressed in the default mode.
  monitor.submit(report_for(7, 3, sim));
  sim.run_until();
  EXPECT_EQ(monitor.stats().alerts_raised, 1u);
  EXPECT_EQ(monitor.stats().suppressed_duplicate, 1u);
}

TEST(FlowStateEvictionTest, PipelineForwardsFlowEndToMonitor) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("h1", Ipv4(10, 0, 0, 1));
  net.add_external_host("ext", Ipv4(198, 51, 100, 1));

  PipelineConfig cfg;
  cfg.product = "evict-test";
  cfg.sensor_count = 1;
  cfg.sensor.base_ops_per_packet = 1000.0;
  cfg.sensor.ops_per_sec = 1e9;
  cfg.rules = standard_rule_set();
  cfg.monitor.notification_delay = SimTime::from_ms(1);
  cfg.monitor.evict_on_flow_end = true;
  cfg.use_console = false;
  Pipeline pipeline(sim, net, cfg);
  pipeline.attach();

  // Seed dedup records directly; the pipeline's tap only needs to relay
  // the flow-end signal.
  pipeline.monitor().submit(report_for(1, 3, sim));
  pipeline.monitor().submit(report_for(2, 3, sim));
  sim.run_until();
  ASSERT_EQ(pipeline.monitor().tracked_flows(), 2u);

  // Two FIN packets injected at the same tick exercise the coalesced
  // feed_batch path.
  TcpFlags fin;
  fin.fin = true;
  auto fin_packet = [&](std::uint64_t flow) {
    FiveTuple t;
    t.src_ip = Ipv4(198, 51, 100, 1);
    t.dst_ip = Ipv4(10, 0, 0, 1);
    t.src_port = static_cast<std::uint16_t>(4000 + flow);
    t.dst_port = 80;
    return netsim::make_packet(sim.next_packet_id(), flow, sim.now(), t,
                               "bye", fin);
  };
  net.send(fin_packet(1));
  net.send(fin_packet(2));
  sim.run_until();

  EXPECT_EQ(pipeline.monitor().tracked_flows(), 0u);
  EXPECT_EQ(pipeline.monitor().stats().evicted_flows, 2u);
  // D is untouched.
  EXPECT_EQ(pipeline.monitor().alerted_flows().size(), 2u);
}

}  // namespace
}  // namespace idseval::ids
