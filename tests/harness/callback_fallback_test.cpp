// Zero-callback-fallback invariant: every event the simulator schedules
// on the hot path must fit util::InlineCallback's inline buffer, so the
// event core never allocates per event. Simulator::alloc_fallbacks()
// counts every capture that spilled to the heap; a capture grown past
// kInlineBytes anywhere on the emission/delivery/analysis path shows up
// here as a non-zero count. Covered shapes: a short seeded testbed on
// every built-in traffic profile at 1 and 2 shards (flow generation,
// attack emission, link delivery, the IDS pipeline, host agents and the
// cross-shard mailboxes), 64-byte self-rescheduling timers (pure
// scheduler churn), and same-tick burst trains fanned out over
// zero-bandwidth links with delivery coalescing on and off.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/killchain.hpp"
#include "harness/testbed.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "products/catalog.hpp"
#include "traffic/profile.hpp"
#include "util/inline_callback.hpp"
#include "util/rng.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;
using netsim::Simulator;

TEST(CallbackFallbackTest, EveryProfileTestbedRunsInline) {
  const std::vector<std::string> profiles = {
      "rt_cluster", "ecommerce", "office",  "random_flood",
      "megaflow",   "ics",       "canbus"};
  const std::vector<products::ProductId> models = {
      products::ProductId::kSentryNid, products::ProductId::kGuardSecure,
      products::ProductId::kFlowHunt, products::ProductId::kAgentSwarm};
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (const std::size_t shards : {1u, 2u}) {
      // Rotate the products over the profiles so each product's pipeline
      // shape (in-line LB, anomaly engine, host agents) is on the path.
      const products::ProductId id = models[i % models.size()];
      SCOPED_TRACE(profiles[i] + " / " + products::to_string(id) +
                   " / shards " + std::to_string(shards));
      TestbedConfig cfg;
      cfg.profile = traffic::profile_by_name(profiles[i]);
      cfg.internal_hosts = 6;
      cfg.external_hosts = 3;
      cfg.seed = 20261019 + i;
      cfg.rate_scale = 2.0;
      cfg.shards = shards;
      cfg.warmup = SimTime::from_sec(1);
      cfg.measure = SimTime::from_sec(2);
      cfg.drain = SimTime::from_sec(1);
      Testbed bed(cfg, &products::product(id), 0.5);
      const auto chain = attack::KillChain::mixed(
          1, SimTime::zero(), cfg.measure * 0.9,
          util::hash64("fallbacks") ^ cfg.seed, cfg.external_hosts,
          cfg.internal_hosts);
      const RunResult r = bed.run(chain);
      EXPECT_GT(r.transactions, 0u);
      EXPECT_EQ(bed.engine().alloc_fallbacks(), 0u);
    }
  }
}

// 64-byte self-rescheduling timer: the capture shape of the simulator's
// hot callbacks (a couple of pointers plus a small record).
struct ChurnTimer {
  Simulator* sim;
  std::uint64_t target;
  std::uint64_t id;
  std::uint64_t pad[5];

  void operator()() const {
    if (sim->executed() >= target) return;
    sim->schedule_in(SimTime::from_us(1.0 + static_cast<double>(id % 7)),
                     ChurnTimer{*this});
  }
};
static_assert(sizeof(ChurnTimer) == 64);

TEST(CallbackFallbackTest, TimerChurnWith64ByteCapturesRunsInline) {
  static_assert(util::InlineCallback::fits_inline<ChurnTimer>());
  constexpr std::uint64_t kEvents = 200000;
  Simulator sim;
  for (std::uint64_t i = 0; i < 64; ++i) {
    sim.schedule_in(SimTime::from_us(static_cast<double>(i)),
                    ChurnTimer{&sim, kEvents, i, {}});
  }
  sim.run_until(SimTime::max());
  EXPECT_GE(sim.executed(), kEvents);
  EXPECT_EQ(sim.alloc_fallbacks(), 0u);
}

struct FanOut {
  std::uint64_t mirrored = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t fallbacks = 0;
};

// Same-tick burst trains through a two-host switch topology. Zero
// bandwidth means no serialization gaps, so each burst reaches every
// link as one same-tick train — the shape batched delivery coalesces.
FanOut burst_fan_out(bool coalesce, int bursts, std::uint32_t burst_size) {
  Simulator sim;
  netsim::Network net(sim);
  netsim::LinkSpec wire;
  wire.bandwidth_bps = 0.0;
  wire.latency = SimTime::from_us(5);
  wire.queue_capacity = 4096;
  const netsim::Ipv4 src(10, 0, 0, 1);
  const netsim::Ipv4 dst(10, 0, 0, 2);
  net.add_host("src", src, wire);
  netsim::Host* sink = net.add_host("dst", dst, wire);
  net.set_delivery_coalescing(coalesce);
  FanOut out;
  net.lan_switch().add_mirror_batch(
      [&out](const netsim::Packet*, std::size_t n) { out.mirrored += n; });
  sink->add_receiver_batch(
      [&out](const netsim::Packet*, std::size_t n) { out.delivered += n; });
  const auto payload = std::make_shared<const std::string>(256, 'b');
  for (int b = 0; b < bursts; ++b) {
    sim.schedule_in(
        SimTime::from_ms(static_cast<double>(b)),
        [&sim, &net, src, dst, payload, burst_size] {
          netsim::FiveTuple t;
          t.src_ip = src;
          t.dst_ip = dst;
          t.src_port = 40000;
          t.dst_port = netsim::ports::kHttp;
          const std::uint64_t flow = sim.next_flow_id();
          for (std::uint32_t seq = 0; seq < burst_size; ++seq) {
            netsim::Packet p = netsim::make_packet(
                sim.next_packet_id(), flow, sim.now(), t, payload);
            p.seq = seq;
            p.flags.syn = seq == 0;
            p.flags.ack = seq != 0;
            p.flags.fin = seq + 1 == burst_size;
            net.send(p);
          }
        });
  }
  sim.run_until(SimTime::max());
  out.events = sim.executed();
  out.fallbacks = sim.alloc_fallbacks();
  return out;
}

TEST(CallbackFallbackTest, SameTickBurstFanOutRunsInline) {
  constexpr int kBursts = 50;
  constexpr std::uint32_t kBurst = 64;
  const FanOut batched = burst_fan_out(true, kBursts, kBurst);
  const FanOut single = burst_fan_out(false, kBursts, kBurst);
  for (const FanOut& f : {batched, single}) {
    EXPECT_EQ(f.mirrored, std::uint64_t{kBursts} * kBurst);
    EXPECT_EQ(f.delivered, std::uint64_t{kBursts} * kBurst);
    EXPECT_EQ(f.fallbacks, 0u);
  }
  // The trains really were same-tick: coalescing folded them.
  EXPECT_LT(batched.events * 4, single.events);
}

}  // namespace
}  // namespace idseval::harness
