// Wall-clock floors on the two whole-path workloads, sized to catch an
// order-of-magnitude collapse rather than to measure:
//
//   testbed  — a GuardSecure testbed at 6x rt_cluster load must execute
//              at least 1.3x the 772,274 events/s the event core ran at
//              before the allocation-free callbacks and pooled payloads;
//   megaflow — the megaflow profile scaled to 2,000 hosts and 5k flow
//              arrivals per sim-second, with a FlowTuple-keyed live-flow
//              tracker on the mirror tap, must create at least 6,000
//              flows per wall second, about a third of what an optimized
//              build on 4 vCPUs measures (a uniform 10x slowdown, or a
//              flow-table probe chain gone quadratic, falls below it).
//
// The floors fail only on optimized (NDEBUG), sanitizer-free builds. An
// unoptimized or sanitized build cannot speak for wall-clock rates, so
// there a missed floor is printed as a warning and the test passes. The
// executable is registered RUN_SERIAL so no other test shares the CPU.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/killchain.hpp"
#include "harness/testbed.hpp"
#include "netsim/flow_tuple.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "products/catalog.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/ledger.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::harness {
namespace {

using netsim::SimTime;

constexpr double kTestbedEventsPerSecFloor = 1.3 * 772274.0;
constexpr double kMegaflowFlowsPerSecFloor = 6000.0;

constexpr bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

constexpr bool optimized_build() {
#if defined(NDEBUG)
  return !sanitized_build();
#else
  return false;
#endif
}

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void expect_floor(const char* what, double rate, double floor) {
  std::printf("%s: %.0f (floor %.0f)\n", what, rate, floor);
  if (optimized_build()) {
    EXPECT_GE(rate, floor) << what;
  } else if (rate < floor) {
    std::printf("warning: %s below its floor, ignored on unoptimized or "
                "sanitized builds\n",
                what);
  }
}

TEST(ThroughputFloorTest, TestbedEventRate) {
  TestbedConfig cfg;
  cfg.profile = traffic::rt_cluster_profile();
  cfg.internal_hosts = 8;
  cfg.external_hosts = 4;
  cfg.seed = 42;
  cfg.rate_scale = 6.0;
  cfg.warmup = SimTime::from_sec(3);
  cfg.measure = SimTime::from_sec(3);
  cfg.drain = SimTime::from_sec(2);
  Testbed bed(cfg, &products::product(products::ProductId::kGuardSecure),
              0.5);
  const auto chain = attack::KillChain::mixed(
      1, SimTime::zero(), cfg.measure * 0.9,
      util::hash64("bench") ^ cfg.seed, cfg.external_hosts,
      cfg.internal_hosts);
  const double t0 = now_sec();
  (void)bed.run(chain);
  const double dt = now_sec() - t0;
  expect_floor("testbed events/s",
               static_cast<double>(bed.sim().executed()) / dt,
               kTestbedEventsPerSecFloor);
}

TEST(ThroughputFloorTest, MegaflowFlowRate) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::vector<netsim::Ipv4> internal_hosts;
  std::vector<netsim::Ipv4> external_hosts;
  for (int i = 0; i < 2000; ++i) {
    const netsim::Ipv4 addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                            static_cast<std::uint8_t>(i & 0xff));
    net.add_host(util::cat("h", i), addr);
    internal_hosts.push_back(addr);
  }
  for (int i = 0; i < 200; ++i) {
    const netsim::Ipv4 addr(198, 51, static_cast<std::uint8_t>(i >> 8),
                            static_cast<std::uint8_t>(i & 0xff));
    net.add_external_host(util::cat("x", i), addr);
    external_hosts.push_back(addr);
  }

  struct FlowAccum {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  netsim::FlowMap<FlowAccum> live;
  live.reserve(1u << 16);
  net.lan_switch().add_mirror_batch(
      [&live](const netsim::Packet* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          const netsim::FlowTuple key =
              netsim::FlowTuple::from(p[i].tuple).canonical();
          if (p[i].flags.fin || p[i].flags.rst) {
            live.erase(key);
            continue;
          }
          FlowAccum& acc = *live.try_emplace(key).first;
          ++acc.packets;
          acc.bytes += p[i].payload_bytes();
        }
      });

  traffic::EnvironmentProfile prof = traffic::megaflow_profile();
  prof.flows_per_sec *= 20.0;  // 5k flows per sim-second
  traffic::TransactionLedger ledger;
  traffic::FlowGenerator gen(sim, net, &ledger, prof, /*seed=*/13);
  gen.set_internal_hosts(internal_hosts);
  gen.set_external_hosts(external_hosts);

  const double t0 = now_sec();
  gen.start(SimTime::from_sec(6));
  sim.run_until(SimTime::from_sec(6 + 25));
  const double dt = now_sec() - t0;
  EXPECT_GT(ledger.size(), 20000u);
  expect_floor("megaflow flows/s", static_cast<double>(ledger.size()) / dt,
               kMegaflowFlowsPerSecFloor);
}

}  // namespace
}  // namespace idseval::harness
