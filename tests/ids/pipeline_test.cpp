// Pipeline assembly tests, including the Figure 2 cardinality validation
// (F2 in the experiment index): LB 1c:M, sensors M:M analyzers, analyzers
// M:1 monitor, monitor 1:1c console.
#include "ids/pipeline.hpp"

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "util/strfmt.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

PipelineConfig base_config() {
  PipelineConfig c;
  c.product = "test-ids";
  c.sensor_count = 2;
  c.sensor.base_ops_per_packet = 1000.0;
  c.sensor.ops_per_sec = 1e9;
  c.signature_engine = true;
  c.rules = standard_rule_set();
  c.analyzer_count = 1;
  c.monitor.notification_delay = SimTime::from_ms(10);
  c.use_console = true;
  c.console.policy = default_policy();
  c.console.reaction_delay = SimTime::from_ms(10);
  return c;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : net_(sim_) {
    for (int i = 1; i <= 4; ++i) {
      const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i));
      net_.add_host(util::cat("h", i), addr);
      internal_.push_back(addr);
    }
    net_.add_external_host("ext", Ipv4(198, 51, 100, 1));
  }

  void send(std::string payload, std::uint16_t dst_port = 80,
            Ipv4 src = Ipv4(198, 51, 100, 1)) {
    FiveTuple t;
    t.src_ip = src;
    t.dst_ip = internal_[0];
    t.src_port = 4000;
    t.dst_port = dst_port;
    net_.send(netsim::make_packet(sim_.next_packet_id(),
                                  sim_.next_flow_id(), sim_.now(), t,
                                  std::move(payload)));
  }

  netsim::Simulator sim_;
  netsim::Network net_;
  std::vector<Ipv4> internal_;
};

// --- Figure 2 cardinality validation ---------------------------------------

TEST(PipelineValidateTest, SensingIsEssential) {
  PipelineConfig c = base_config();
  c.sensor_count = 0;
  c.use_host_agents = false;
  const auto violations = Pipeline::validate(c);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("sensing is essential"), std::string::npos);
}

TEST(PipelineValidateTest, AnalysisIsEssential) {
  PipelineConfig c = base_config();
  c.analyzer_count = 0;
  EXPECT_FALSE(Pipeline::validate(c).empty());
}

TEST(PipelineValidateTest, LbRequiresSensors) {
  PipelineConfig c = base_config();
  c.sensor_count = 0;
  c.use_host_agents = true;  // sensing exists, but not network sensors
  c.use_load_balancer = true;
  bool found = false;
  for (const auto& v : Pipeline::validate(c)) {
    if (v.find("1c:M") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PipelineValidateTest, AnalyzersCannotOutnumberSources) {
  PipelineConfig c = base_config();
  c.sensor_count = 1;
  c.analyzer_count = 3;
  EXPECT_FALSE(Pipeline::validate(c).empty());
}

TEST(PipelineValidateTest, SensitivityRange) {
  PipelineConfig c = base_config();
  c.sensitivity = 1.5;
  EXPECT_FALSE(Pipeline::validate(c).empty());
}

TEST(PipelineValidateTest, ValidConfigPasses) {
  EXPECT_TRUE(Pipeline::validate(base_config()).empty());
  // Optional subprocesses may both be absent (1c): console off, LB off.
  PipelineConfig minimal = base_config();
  minimal.use_console = false;
  minimal.use_load_balancer = false;
  minimal.sensor_count = 1;
  EXPECT_TRUE(Pipeline::validate(minimal).empty());
}

TEST(PipelineValidateTest, ConstructorThrowsOnViolations) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  PipelineConfig c = base_config();
  c.sensor_count = 0;
  c.use_host_agents = false;
  EXPECT_THROW(Pipeline(sim, net, c), std::invalid_argument);
}

// --- End-to-end behaviour ----------------------------------------------------

TEST_F(PipelineTest, MirrorAttachDetectsAttackPayload) {
  Pipeline pipeline(sim_, net_, base_config());
  pipeline.attach();
  pipeline.set_learning(false);
  send(util::cat("GET ", attack::patterns::kDirTraversal,
                 " HTTP/1.0\r\n"));
  sim_.run_until();
  EXPECT_EQ(pipeline.monitor().log().size(), 1u);
  const PipelineTotals totals = pipeline.totals();
  EXPECT_EQ(totals.packets_tapped, 1u);
  EXPECT_EQ(totals.detections, 1u);
  EXPECT_EQ(totals.alerts, 1u);
}

TEST_F(PipelineTest, CleanTrafficRaisesNothing) {
  Pipeline pipeline(sim_, net_, base_config());
  pipeline.attach();
  pipeline.set_learning(false);
  send("GET /index.html HTTP/1.0\r\nHost: shop.example\r\n\r\n");
  sim_.run_until();
  EXPECT_TRUE(pipeline.monitor().log().empty());
}

TEST_F(PipelineTest, ConsoleBlocksCriticalOffender) {
  PipelineConfig c = base_config();
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach();
  pipeline.set_learning(false);
  // NOP sled rule is severity 5 / confidence 0.95: block policy fires.
  send(util::cat("data ", attack::patterns::kNopSled,
                 attack::patterns::kShellInvoke));
  sim_.run_until();
  EXPECT_TRUE(net_.lan_switch().is_blocked(Ipv4(198, 51, 100, 1)));
}

TEST_F(PipelineTest, MgmtPortTrafficNotTapped) {
  Pipeline pipeline(sim_, net_, base_config());
  pipeline.attach();
  send("internal report", kMgmtPort);
  sim_.run_until();
  EXPECT_EQ(pipeline.totals().packets_tapped, 0u);
}

TEST_F(PipelineTest, StaticPlacementWithoutLbSplitsByDestination) {
  PipelineConfig c = base_config();
  c.sensor_count = 2;
  c.use_load_balancer = false;
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach();
  // Hosts .1 and .2 hash to different sensors (value % 2 differs).
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.src_port = 4000;
  t.dst_port = 80;
  t.dst_ip = internal_[0];
  net_.send(netsim::make_packet(sim_.next_packet_id(), 1, sim_.now(), t,
                                "a"));
  t.dst_ip = internal_[1];
  net_.send(netsim::make_packet(sim_.next_packet_id(), 2, sim_.now(), t,
                                "b"));
  sim_.run_until();
  EXPECT_EQ(pipeline.sensors()[0]->stats().offered, 1u);
  EXPECT_EQ(pipeline.sensors()[1]->stats().offered, 1u);
}

TEST_F(PipelineTest, LoadBalancerPathDelivers) {
  PipelineConfig c = base_config();
  c.use_load_balancer = true;
  c.lb.strategy = LbStrategy::kFlowHash;
  c.lb.in_line = false;
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach();
  send("hello world");
  sim_.run_until();
  EXPECT_EQ(pipeline.load_balancer()->stats().forwarded, 1u);
  EXPECT_EQ(pipeline.totals().sensor_offered, 1u);
}

TEST_F(PipelineTest, InlineLbDelaysProductionTraffic) {
  // Measure delivery latency with a passive pipeline, then in-line.
  SimTime passive_arrival;
  SimTime inline_arrival;
  {
    netsim::Simulator sim;
    netsim::Network net(sim);
    auto* dst = net.add_host("h1", Ipv4(10, 0, 0, 1));
    net.add_external_host("ext", Ipv4(198, 51, 100, 1));
    SimTime* slot = &passive_arrival;
    dst->add_receiver_batch(
        netsim::per_packet([&sim, slot](const Packet&) {
          *slot = sim.now();
        }));
    PipelineConfig c = base_config();
    c.use_load_balancer = true;
    c.lb.in_line = false;
    Pipeline pipeline(sim, net, c);
    pipeline.attach();
    FiveTuple t;
    t.src_ip = Ipv4(198, 51, 100, 1);
    t.dst_ip = Ipv4(10, 0, 0, 1);
    t.dst_port = 80;
    net.send(netsim::make_packet(1, 1, sim.now(), t, "x"));
    sim.run_until();
  }
  {
    netsim::Simulator sim;
    netsim::Network net(sim);
    auto* dst = net.add_host("h1", Ipv4(10, 0, 0, 1));
    net.add_external_host("ext", Ipv4(198, 51, 100, 1));
    SimTime* slot = &inline_arrival;
    dst->add_receiver_batch(
        netsim::per_packet([&sim, slot](const Packet&) {
          *slot = sim.now();
        }));
    PipelineConfig c = base_config();
    c.use_load_balancer = true;
    c.lb.in_line = true;
    c.lb.inline_latency = SimTime::from_us(80);
    Pipeline pipeline(sim, net, c);
    pipeline.attach();
    FiveTuple t;
    t.src_ip = Ipv4(198, 51, 100, 1);
    t.dst_ip = Ipv4(10, 0, 0, 1);
    t.dst_port = 80;
    net.send(netsim::make_packet(1, 1, sim.now(), t, "x"));
    sim.run_until();
  }
  EXPECT_GE(inline_arrival - passive_arrival, SimTime::from_us(80));
}

TEST_F(PipelineTest, HostAgentsAttachToGivenHosts) {
  PipelineConfig c = base_config();
  c.sensor_count = 0;
  c.use_host_agents = true;
  c.analyzer_count = 1;
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach(internal_);
  EXPECT_EQ(pipeline.agents().size(), internal_.size());
  send(util::cat("GET ", attack::patterns::kDirTraversal,
                 " HTTP/1.0\r\n"));
  sim_.run_until();
  EXPECT_EQ(pipeline.monitor().log().size(), 1u);
}

TEST_F(PipelineTest, UnknownAgentHostThrows) {
  PipelineConfig c = base_config();
  c.use_host_agents = true;
  Pipeline pipeline(sim_, net_, c);
  EXPECT_THROW(pipeline.attach({Ipv4(10, 9, 9, 9)}), std::invalid_argument);
}

TEST_F(PipelineTest, DoubleAttachThrows) {
  Pipeline pipeline(sim_, net_, base_config());
  pipeline.attach();
  EXPECT_THROW(pipeline.attach(), std::logic_error);
}

TEST_F(PipelineTest, SensorFailureReportedAsCriticalAlert) {
  PipelineConfig c = base_config();
  c.sensor_count = 1;
  c.sensor.queue_capacity = 4;
  c.sensor.base_ops_per_packet = 1e8;  // hopelessly slow
  c.sensor.overload_tolerance = SimTime::from_ms(100);
  c.sensor.recovery = RecoveryPolicy::kAppRestart;
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach();
  for (int i = 0; i < 100; ++i) send("x");
  sim_.run_until();
  bool failure_alert = false;
  for (const auto& alert : pipeline.monitor().log()) {
    if (alert.rule.find("sensor failure") != std::string::npos) {
      failure_alert = true;
      EXPECT_EQ(alert.severity, 5);
    }
  }
  EXPECT_TRUE(failure_alert);
  EXPECT_GT(pipeline.totals().sensor_failures, 0u);
}

TEST_F(PipelineTest, ResetCountersClearsRunState) {
  Pipeline pipeline(sim_, net_, base_config());
  pipeline.attach();
  pipeline.set_learning(false);
  send(util::cat("GET ", attack::patterns::kDirTraversal,
                 " HTTP/1.0\r\n"));
  sim_.run_until();
  EXPECT_GT(pipeline.totals().packets_tapped, 0u);
  pipeline.reset_counters();
  const PipelineTotals totals = pipeline.totals();
  EXPECT_EQ(totals.packets_tapped, 0u);
  EXPECT_EQ(totals.sensor_offered, 0u);
  EXPECT_EQ(totals.alerts, 0u);
  EXPECT_TRUE(pipeline.monitor().log().empty());
}

TEST_F(PipelineTest, SetSensitivityPropagates) {
  PipelineConfig c = base_config();
  c.anomaly_engine = true;
  Pipeline pipeline(sim_, net_, c);
  pipeline.attach();
  pipeline.set_sensitivity(0.8);
  EXPECT_DOUBLE_EQ(pipeline.sensitivity(), 0.8);
  for (const auto& sensor : pipeline.sensors()) {
    EXPECT_DOUBLE_EQ(sensor->signature_engine()->sensitivity(), 0.8);
    EXPECT_DOUBLE_EQ(sensor->anomaly_engine()->sensitivity(), 0.8);
  }
}

}  // namespace
}  // namespace idseval::ids
