#include "traffic/trace.hpp"

#include <gtest/gtest.h>

#include "traffic/payload.hpp"
#include "util/rng.hpp"

namespace idseval::traffic {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;
using netsim::TcpFlags;

Packet sample_packet(std::uint64_t flow, std::string payload,
                     TcpFlags flags = {}) {
  FiveTuple t;
  t.src_ip = Ipv4(10, 0, 0, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = 4000;
  t.dst_port = 80;
  Packet p = netsim::make_packet(1, flow, SimTime::zero(), t,
                                 std::move(payload), flags);
  p.seq = 3;
  return p;
}

TEST(TraceTest, AppendAbsoluteRebasesToFirstPacket) {
  Trace trace;
  trace.append_absolute(SimTime::from_sec(100), sample_packet(1, "a"));
  trace.append_absolute(SimTime::from_sec(101), sample_packet(1, "b"));
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.entries()[0].offset, SimTime::zero());
  EXPECT_EQ(trace.entries()[1].offset, SimTime::from_sec(1));
  EXPECT_EQ(trace.duration(), SimTime::from_sec(1));
}

TEST(TraceTest, SerializeDeserializeRoundTrip) {
  Trace trace;
  TcpFlags syn;
  syn.syn = true;
  trace.append(SimTime::zero(), sample_packet(7, "", syn));
  trace.append(SimTime::from_ms(3),
               sample_packet(7, "GET /index.html HTTP/1.0\r\n\r\n"));
  // Binary-ish payload with newline and non-ASCII survives hex encoding.
  trace.append(SimTime::from_ms(9),
               sample_packet(8, std::string("\x00\x90\xff\nline", 8)));

  const Trace copy = Trace::deserialize(trace.serialize());
  ASSERT_EQ(copy.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.entries()[i];
    const auto& b = copy.entries()[i];
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.packet.flow_id, b.packet.flow_id);
    EXPECT_EQ(a.packet.tuple, b.packet.tuple);
    EXPECT_EQ(a.packet.flags, b.packet.flags);
    EXPECT_EQ(a.packet.seq, b.packet.seq);
    EXPECT_EQ(a.packet.payload_view(), b.packet.payload_view());
  }
}

TEST(TraceTest, DeserializeRejectsBadHeader) {
  EXPECT_THROW(Trace::deserialize("not a trace\n"), std::invalid_argument);
}

TEST(TraceTest, DeserializeRejectsMalformedLine) {
  EXPECT_THROW(Trace::deserialize("idseval-trace v1\ngarbage line\n"),
               std::invalid_argument);
}

TEST(TraceTest, ReplayReinjectsPackets) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("a", Ipv4(10, 0, 0, 1));
  auto* b = net.add_host("b", Ipv4(10, 0, 0, 2));
  int received = 0;
  b->add_receiver_batch(
      netsim::per_packet([&](const Packet&) { ++received; }));

  Trace trace;
  trace.append(SimTime::zero(), sample_packet(1, "one"));
  trace.append(SimTime::from_ms(10), sample_packet(1, "two"));
  const auto mapping =
      trace.replay(sim, net, SimTime::from_sec(1), /*time_scale=*/1.0);
  sim.run_until();

  EXPECT_EQ(received, 2);
  ASSERT_EQ(mapping.size(), 1u);  // one distinct flow remapped
  EXPECT_EQ(mapping[0].first, 1u);
  EXPECT_GT(mapping[0].second, 0u);
}

TEST(TraceTest, ReplayTimeScaleCompresses) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("a", Ipv4(10, 0, 0, 1));
  auto* b = net.add_host("b", Ipv4(10, 0, 0, 2));
  std::vector<double> arrivals;
  b->add_receiver_batch(
      netsim::per_packet([&](const Packet&) {
        arrivals.push_back(sim.now().ms());
      }));

  Trace trace;
  trace.append(SimTime::zero(), sample_packet(1, "one"));
  trace.append(SimTime::from_ms(100), sample_packet(1, "two"));
  trace.replay(sim, net, SimTime::zero(), /*time_scale=*/0.1);
  sim.run_until();

  ASSERT_EQ(arrivals.size(), 2u);
  // 100 ms gap compressed to ~10 ms (plus constant network transit).
  EXPECT_NEAR(arrivals[1] - arrivals[0], 10.0, 1.0);
}

TEST(TraceTest, ReplayMapsDistinctFlowsDistinctly) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("a", Ipv4(10, 0, 0, 1));
  net.add_host("b", Ipv4(10, 0, 0, 2));
  Trace trace;
  trace.append(SimTime::zero(), sample_packet(1, "x"));
  trace.append(SimTime::from_ms(1), sample_packet(2, "y"));
  const auto mapping = trace.replay(sim, net, SimTime::zero());
  ASSERT_EQ(mapping.size(), 2u);
  EXPECT_NE(mapping[0].second, mapping[1].second);
}

TEST(TraceTest, CapturedFromMirrorThenReplayed) {
  // Record via a switch mirror, then replay the canned data elsewhere —
  // the paper's recommended FN-measurement workflow (§4).
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("a", Ipv4(10, 0, 0, 1));
  net.add_host("b", Ipv4(10, 0, 0, 2));
  Trace trace;
  net.lan_switch().add_mirror_batch(netsim::per_packet([&](const Packet& p) {
    trace.append_absolute(sim.now(), p);
  }));
  net.send(sample_packet(5, "captured"));
  sim.run_until();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.entries()[0].packet.payload_view(), "captured");
}

}  // namespace
}  // namespace idseval::traffic
