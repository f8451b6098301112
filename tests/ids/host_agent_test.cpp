#include "ids/host_agent.hpp"

#include <gtest/gtest.h>

#include "ids/rules.hpp"
#include "attack/patterns.hpp"
#include "util/strfmt.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

class HostAgentTest : public ::testing::Test {
 protected:
  HostAgentTest() : net_(sim_) {
    host_ = net_.add_host("node", Ipv4(10, 0, 0, 2), {}, 1e9);
    net_.add_host("sink", Ipv4(10, 0, 0, 9));
    net_.add_external_host("ext", Ipv4(198, 51, 100, 1));
  }

  HostAgent make_agent(HostAgentConfig cfg = {}) {
    SensorConfig sc;
    sc.base_ops_per_packet = 2000.0;
    return HostAgent(sim_, net_, *host_, cfg, sc);
  }

  void send_to_host(std::string payload, std::uint16_t dst_port = 80) {
    FiveTuple t;
    t.src_ip = Ipv4(198, 51, 100, 1);
    t.dst_ip = host_->address();
    t.src_port = 4000;
    t.dst_port = dst_port;
    net_.send(netsim::make_packet(sim_.next_packet_id(),
                                  sim_.next_flow_id(), sim_.now(), t,
                                  std::move(payload)));
  }

  netsim::Simulator sim_;
  netsim::Network net_;
  netsim::Host* host_ = nullptr;
};

TEST_F(HostAgentTest, ObservesDeliveredPackets) {
  auto agent = make_agent();
  agent.set_on_detection([](const Detection&) {});
  agent.attach();
  send_to_host("hello");
  sim_.run_until();
  EXPECT_EQ(agent.sensor().stats().offered, 1u);
}

TEST_F(HostAgentTest, DetectsSignatureInHostTraffic) {
  auto agent = make_agent();
  agent.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.5, true}));
  std::vector<Detection> got;
  agent.set_on_detection([&](const Detection& d) { got.push_back(d); });
  agent.attach();
  send_to_host(util::cat("GET ", attack::patterns::kDirTraversal,
                         " HTTP/1.0\r\n"));
  sim_.run_until();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "WEB-IIS dir traversal");
}

TEST_F(HostAgentTest, ChargesLoggingToHostCpu) {
  HostAgentConfig cfg;
  cfg.logging = LoggingLevel::kC2Audit;
  auto agent = make_agent(cfg);
  agent.set_on_detection([](const Detection&) {});
  agent.attach();
  host_->begin_accounting(sim_.now());
  for (int i = 0; i < 100; ++i) send_to_host("x");
  sim_.run_until();
  host_->end_accounting(sim_.now());
  EXPECT_GT(host_->ids_cpu_fraction(), 0.0);
}

TEST_F(HostAgentTest, LoggingLevelsOrderedByCost) {
  EXPECT_EQ(logging_ops_per_packet(LoggingLevel::kNone), 0.0);
  EXPECT_LT(logging_ops_per_packet(LoggingLevel::kNominal),
            logging_ops_per_packet(LoggingLevel::kC2Audit));
  // C2 ~5x nominal, matching the 3-5% vs ~20% figures of §2.1.
  EXPECT_NEAR(logging_ops_per_packet(LoggingLevel::kC2Audit) /
                  logging_ops_per_packet(LoggingLevel::kNominal),
              5.0, 0.5);
}

TEST_F(HostAgentTest, ReportsOverNetworkConsumeBandwidth) {
  HostAgentConfig cfg;
  cfg.report_over_network = true;
  cfg.report_sink = Ipv4(10, 0, 0, 9);
  auto agent = make_agent(cfg);
  agent.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.5, true}));
  int detections = 0;
  agent.set_on_detection([&](const Detection&) { ++detections; });
  agent.attach();

  int mgmt_packets = 0;
  net_.lan_switch().add_mirror_batch(netsim::per_packet([&](const Packet& p) {
    if (p.tuple.dst_port == kMgmtPort) ++mgmt_packets;
  }));

  send_to_host(util::cat("GET ", attack::patterns::kDirTraversal,
                         " HTTP/1.0\r\n"));
  sim_.run_until();
  EXPECT_EQ(detections, 1);
  EXPECT_EQ(agent.reports_sent(), 1u);
  EXPECT_EQ(mgmt_packets, 1);
}

TEST_F(HostAgentTest, NeverAnalyzesOwnReports) {
  // Deliver a management-port packet to the host: the agent must skip it.
  auto agent = make_agent();
  agent.set_on_detection([](const Detection&) {});
  agent.attach();
  send_to_host("report payload", kMgmtPort);
  sim_.run_until();
  EXPECT_EQ(agent.sensor().stats().offered, 0u);
}

TEST_F(HostAgentTest, CpuShareLimitsAgentThroughput) {
  HostAgentConfig small;
  small.cpu_share = 0.01;  // 1e7 ops/s
  auto agent = make_agent(small);
  EXPECT_NEAR(agent.sensor().config().ops_per_sec, 1e7, 1.0);
}

TEST_F(HostAgentTest, LoggingLevelNames) {
  EXPECT_EQ(to_string(LoggingLevel::kNone), "none");
  EXPECT_EQ(to_string(LoggingLevel::kNominal), "nominal");
  EXPECT_EQ(to_string(LoggingLevel::kC2Audit), "c2-audit");
}

}  // namespace
}  // namespace idseval::ids
