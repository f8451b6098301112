// Stream-reassembly vs packet-boundary evasion (Ptacek-Newsham): a
// pattern split across two payloads must be invisible to a per-packet
// matcher and visible to a reassembling one — at measurable extra cost.
#include <gtest/gtest.h>

#include "attack/emitter.hpp"
#include "attack/patterns.hpp"
#include "ids/pipeline.hpp"
#include "ids/signature_engine.hpp"
#include "products/catalog.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

Packet http_packet(std::uint64_t flow, std::uint32_t seq,
                   std::string payload) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = 4000;
  t.dst_port = netsim::ports::kHttp;
  Packet p = netsim::make_packet(flow * 100 + seq, flow, SimTime::zero(),
                                 t, std::move(payload));
  p.seq = seq;
  return p;
}

SignatureEngine engine_with(bool reassembly) {
  SignatureEngineOptions opt;
  opt.sensitivity = 0.5;
  opt.stream_reassembly = reassembly;
  return SignatureEngine(standard_rule_set(), opt);
}

TEST(ReassemblyTest, SplitPatternInvisibleWithoutReassembly) {
  auto engine = engine_with(false);
  const std::string exploit = "GET /../../etc/passwd HTTP/1.0\r\n";
  std::vector<Detection> out;
  // Cut inside the traversal pattern.
  engine.process(http_packet(1, 1, exploit.substr(0, 12)),
                 SimTime::from_ms(1), out);
  engine.process(http_packet(1, 2, exploit.substr(12)),
                 SimTime::from_ms(2), out);
  for (const auto& d : out) {
    EXPECT_EQ(d.rule.find("WEB-IIS"), std::string::npos) << d.rule;
  }
}

TEST(ReassemblyTest, SplitPatternCaughtWithReassembly) {
  auto engine = engine_with(true);
  const std::string exploit = "GET /../../etc/passwd HTTP/1.0\r\n";
  std::vector<Detection> out;
  engine.process(http_packet(1, 1, exploit.substr(0, 12)),
                 SimTime::from_ms(1), out);
  engine.process(http_packet(1, 2, exploit.substr(12)),
                 SimTime::from_ms(2), out);
  bool caught = false;
  for (const auto& d : out) {
    if (d.rule == "WEB-IIS dir traversal") caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(ReassemblyTest, UnsplitPatternCaughtEitherWay) {
  for (const bool reassembly : {false, true}) {
    auto engine = engine_with(reassembly);
    std::vector<Detection> out;
    engine.process(
        http_packet(1, 1, "GET /../../etc/passwd HTTP/1.0\r\n"),
        SimTime::from_ms(1), out);
    EXPECT_FALSE(out.empty()) << "reassembly=" << reassembly;
  }
}

TEST(ReassemblyTest, FlowsDoNotCrossContaminate) {
  // Tail of flow A must never complete a pattern begun in flow B.
  auto engine = engine_with(true);
  std::vector<Detection> out;
  engine.process(http_packet(1, 1, "GET /../../e"), SimTime::from_ms(1),
                 out);
  engine.process(http_packet(2, 1, "tc/passwd HTTP/1.0\r\n"),
                 SimTime::from_ms(2), out);
  for (const auto& d : out) {
    EXPECT_EQ(d.rule.find("WEB-IIS"), std::string::npos);
  }
}

TEST(ReassemblyTest, CostsMoreOpsAndTracksMemory) {
  auto plain = engine_with(false);
  auto reassembling = engine_with(true);
  const Packet p = http_packet(1, 1, std::string(400, 'x'));
  EXPECT_GT(reassembling.scan_cost_ops(p), plain.scan_cost_ops(p));

  std::vector<Detection> sink;
  EXPECT_EQ(reassembling.reassembly_bytes(), 0u);
  reassembling.process(p, SimTime::from_ms(1), sink);
  EXPECT_GT(reassembling.reassembly_bytes(), 0u);
  reassembling.reset_state();
  EXPECT_EQ(reassembling.reassembly_bytes(), 0u);
}

TEST(ReassemblyTest, EvasiveEmitterSplitsEveryPattern) {
  // No single packet of the evasive exploit contains a published pattern,
  // but the concatenated stream does.
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("victim", Ipv4(10, 0, 0, 2));
  net.add_external_host("attacker", Ipv4(198, 51, 100, 1));
  traffic::TransactionLedger ledger;
  attack::AttackEmitter emitter(sim, net, ledger, 7);
  std::vector<Packet> seen;
  net.lan_switch().add_mirror_batch(
      netsim::per_packet([&](const Packet& p) { seen.push_back(p); }));
  emitter.launch(attack::AttackKind::kEvasiveExploit,
                 Ipv4(198, 51, 100, 1), Ipv4(10, 0, 0, 2),
                 SimTime::from_ms(1));
  sim.run_until();
  ASSERT_GE(seen.size(), 3u);

  std::string stream;
  for (const auto& p : seen) {
    for (const auto pattern : attack::patterns::kPublished) {
      EXPECT_EQ(p.payload_view().find(pattern), std::string::npos)
          << "pattern visible in a single packet";
    }
    stream += p.payload_view();
  }
  EXPECT_NE(stream.find(attack::patterns::kDirTraversal),
            std::string::npos);
  EXPECT_NE(stream.find(attack::patterns::kNopSled), std::string::npos);
}

TEST(ReassemblyTest, ProductDifferentiationEndToEnd) {
  // SentryNID (reassembling) flags the evasive exploit; GuardSecure's
  // per-packet network sensors do not.
  const std::pair<products::ProductId, bool> cases[] = {
      {products::ProductId::kSentryNid, true},
      {products::ProductId::kGuardSecure, false},
  };
  for (const auto& [id, expect_caught] : cases) {
    netsim::Simulator sim;
    netsim::Network net(sim);
    net.add_host("victim", Ipv4(10, 0, 0, 2));
    net.add_external_host("attacker", Ipv4(198, 51, 100, 1));
    traffic::TransactionLedger ledger;
    attack::AttackEmitter emitter(sim, net, ledger, 7);

    ids::PipelineConfig cfg = products::product(id).make_config(0.5);
    cfg.use_host_agents = false;  // isolate the network-sensor path
    ids::Pipeline pipeline(sim, net, cfg);
    pipeline.attach();
    pipeline.set_learning(false);

    const std::uint64_t flow = emitter.launch(
        attack::AttackKind::kEvasiveExploit, Ipv4(198, 51, 100, 1),
        Ipv4(10, 0, 0, 2), SimTime::from_ms(1));
    sim.run_until();
    EXPECT_EQ(pipeline.monitor().alerted_flows().contains(flow),
              expect_caught)
        << products::to_string(id);
  }
}

}  // namespace
}  // namespace idseval::ids
