#include "netsim/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace idseval::netsim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_) {
    a_ = net_.add_host("a", Ipv4(10, 0, 0, 1));
    b_ = net_.add_host("b", Ipv4(10, 0, 0, 2));
    ext_ = net_.add_external_host("ext", Ipv4(198, 51, 100, 1));
  }

  Packet packet(Ipv4 src, Ipv4 dst, std::string payload = "hi") {
    FiveTuple tuple;
    tuple.src_ip = src;
    tuple.dst_ip = dst;
    tuple.src_port = 1234;
    tuple.dst_port = 80;
    return make_packet(sim_.next_packet_id(), sim_.next_flow_id(),
                       sim_.now(), tuple, std::move(payload));
  }

  Simulator sim_;
  Network net_;
  Host* a_ = nullptr;
  Host* b_ = nullptr;
  Host* ext_ = nullptr;
};

TEST_F(NetworkTest, RejectsDuplicateAddress) {
  EXPECT_THROW(net_.add_host("dup", Ipv4(10, 0, 0, 1)),
               std::invalid_argument);
}

TEST_F(NetworkTest, FindHost) {
  EXPECT_EQ(net_.find_host(Ipv4(10, 0, 0, 1)), a_);
  EXPECT_EQ(net_.find_host(Ipv4(10, 0, 0, 99)), nullptr);
}

TEST_F(NetworkTest, DeliversEndToEnd) {
  int received = 0;
  b_->add_receiver_batch(per_packet([&](const Packet&) { ++received; }));
  net_.send(packet(a_->address(), b_->address()));
  sim_.run_until();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(b_->packets_received(), 1u);
  EXPECT_EQ(a_->packets_received(), 0u);
}

TEST_F(NetworkTest, ExternalToInternalTraversesWan) {
  SimTime arrival;
  b_->add_receiver_batch(
      per_packet([&](const Packet&) { arrival = sim_.now(); }));
  net_.send(packet(ext_->address(), b_->address()));
  sim_.run_until();
  // WAN latency (20ms default) dominates: arrival well past LAN-only time.
  EXPECT_GT(arrival, SimTime::from_ms(15));
}

TEST_F(NetworkTest, UnknownSourceThrows) {
  EXPECT_THROW(net_.send(packet(Ipv4(1, 2, 3, 4), b_->address())),
               std::invalid_argument);
}

TEST_F(NetworkTest, UnroutableDestinationCountsNoRoute) {
  net_.send(packet(a_->address(), Ipv4(10, 0, 0, 99)));
  sim_.run_until();
  EXPECT_EQ(net_.lan_switch().stats().no_route, 1u);
}

TEST_F(NetworkTest, MirrorSeesForwardedTraffic) {
  int mirrored = 0;
  net_.lan_switch().add_mirror_batch(
      per_packet([&](const Packet&) { ++mirrored; }));
  net_.send(packet(a_->address(), b_->address()));
  net_.send(packet(b_->address(), a_->address()));
  sim_.run_until();
  EXPECT_EQ(mirrored, 2);
}

TEST_F(NetworkTest, BlockedSourceIsDroppedAtSwitch) {
  int received = 0;
  b_->add_receiver_batch(per_packet([&](const Packet&) { ++received; }));
  net_.lan_switch().block_source(a_->address());
  net_.send(packet(a_->address(), b_->address()));
  sim_.run_until();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.lan_switch().stats().blocked, 1u);
  // Unblock restores delivery.
  net_.lan_switch().unblock_source(a_->address());
  net_.send(packet(a_->address(), b_->address()));
  sim_.run_until();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, InlineHookCanDelayForwarding) {
  SimTime arrival;
  b_->add_receiver_batch(
      per_packet([&](const Packet&) { arrival = sim_.now(); }));
  SimTime baseline_arrival;
  {
    // First measure without hook.
    net_.send(packet(a_->address(), b_->address()));
    sim_.run_until();
    baseline_arrival = arrival;
  }
  net_.lan_switch().set_inline_hook(
      [&](const Packet& p, std::function<void(const Packet&)> fwd) {
        sim_.schedule_in(SimTime::from_ms(1), [p, fwd] { fwd(p); });
      });
  const SimTime start = sim_.now();
  net_.send(packet(a_->address(), b_->address()));
  sim_.run_until();
  EXPECT_GE(arrival - start, baseline_arrival + SimTime::from_ms(1) -
                                 SimTime::zero());
}

TEST_F(NetworkTest, InlineHookCanDropTraffic) {
  int received = 0;
  b_->add_receiver_batch(per_packet([&](const Packet&) { ++received; }));
  net_.lan_switch().set_inline_hook(
      [](const Packet&, std::function<void(const Packet&)>) {
        // Swallow everything.
      });
  net_.send(packet(a_->address(), b_->address()));
  sim_.run_until();
  EXPECT_EQ(received, 0);
}

TEST_F(NetworkTest, AggregateStatsSumAcrossHosts) {
  net_.send(packet(a_->address(), b_->address()));
  net_.send(packet(b_->address(), a_->address()));
  sim_.run_until();
  const LinkStats up = net_.aggregate_uplink_stats();
  EXPECT_EQ(up.offered_packets, 2u);
  EXPECT_EQ(up.delivered_packets, 2u);
  const LinkStats down = net_.aggregate_downlink_stats();
  EXPECT_EQ(down.delivered_packets, 2u);
  net_.reset_link_stats();
  EXPECT_EQ(net_.aggregate_uplink_stats().offered_packets, 0u);
}

TEST_F(NetworkTest, HostCpuAccounting) {
  a_->begin_accounting(sim_.now());
  a_->charge_ops(5e7, /*ids_work=*/true);
  a_->charge_ops(1e8, /*ids_work=*/false);
  a_->end_accounting(sim_.now() + SimTime::from_sec(1));
  // 5e7 IDS ops on a 1e9 ops/s host over 1 s = 5%.
  EXPECT_NEAR(a_->ids_cpu_fraction(), 0.05, 1e-9);
  EXPECT_NEAR(a_->total_cpu_fraction(), 0.15, 1e-9);
}

TEST_F(NetworkTest, ChargesOutsideAccountingWindowIgnored) {
  a_->charge_ops(1e9, true);  // before begin_accounting
  a_->begin_accounting(sim_.now());
  a_->end_accounting(sim_.now() + SimTime::from_sec(1));
  EXPECT_EQ(a_->ids_cpu_fraction(), 0.0);
}

}  // namespace
}  // namespace idseval::netsim
