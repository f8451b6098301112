// Event-core throughput benchmark (events/sec) with a pinned pre-change
// baseline. Three workloads:
//
//   churn    — 64 self-rescheduling 64-byte timers, pure scheduler churn;
//              isolates InlineCallback + the vector-backed event heap.
//   testbed  — a full GuardSecure testbed run at 6x load; measures the
//              whole emission/delivery/analysis path including pooled
//              payloads.
//   scan_cache — detection-engine hot loop over interned payloads (deep
//              inspection + stream reassembly + entropy), run once with
//              the interned-payload scan cache and once replaying the
//              legacy full-rescan path: isolates the memo +
//              boundary-limited-reassembly win. Reports cached vs
//              legacy packets/sec, hit ratio, and bytes saved; the
//              detection counts must match exactly (hard check).
//   fanout   — same-tick burst trains over zero-bandwidth links, run once
//              with delivery coalescing on and once forced off: isolates
//              the batched-delivery win (one event per (link, tick)
//              instead of one per packet) from the rest of the pipeline.
//   trace    — producer-side cost of the trace sink: batches of events
//              with simulated work between them, once with the sync
//              (cell-boundary-flush) writer and once with the background
//              writer thread; checks the background writer does not add
//              producer-visible time and that both files are identical.
//   megaflow — flow-table stress: the megaflow profile scaled to ~10^4
//              hosts and up to ~10^6 concurrently live flows, with a
//              mirror-tap live-flow tracker keyed by packed FlowTuple.
//              Reports flows/sec (wall), bytes per table probe, and the
//              tracker's probes-per-lookup chain length.
//   shard_scaling — the megaflow workload on the distributed sharded
//              engine at 1/2/4/8 shards: hosts hashed over N full
//              per-shard topologies, per-shard flow generators sourcing
//              locally toward enclave-wide destinations, cross-shard
//              packets riding trunk links through the barrier mailboxes
//              (netsim::CrossShardFabric). Reports events/sec and
//              packets/sec per shard count plus barrier-stall wall time
//              per shard. Wall-clock scaling only materializes with >= N
//              physical cores — the JSON records hardware_concurrency so
//              numbers from a 1-core CI container are not misread as a
//              scaling regression; the smoke floor is warn-only.
//
// The "baseline" constants below were measured at the commit immediately
// before the allocation-free event core landed (std::function queue,
// per-packet payload synthesis), same container, -O3 -DNDEBUG, 1 CPU.
// The "prior" constants are the event-core numbers from the commit
// before batched delivery: the lazy queue-slot release folded ~2 of the
// ~7 events/packet into delivery-time bookkeeping, so events/sec is not
// comparable across that change — packets/sec is the cross-PR metric.
// The bench prints current/baseline speedups, checks the hot path took
// zero callback heap fallbacks, enforces a smoke-mode events/sec floor
// (warn-only without -O2/-O3+NDEBUG or under sanitizers), and writes a
// JSON report for CI to archive.
//
// Usage: bench_netsim [--smoke] [--out FILE]
//   --smoke  short run (CI): fewer events, one repetition, same checks.
//   --out    JSON report path (default BENCH_netsim.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/patterns.hpp"
#include "attack/scenario.hpp"
#include "harness/testbed.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/rules.hpp"
#include "ids/signature_engine.hpp"
#include "netsim/fabric.hpp"
#include "netsim/flow_tuple.hpp"
#include "netsim/network.hpp"
#include "netsim/sharded.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "products/catalog.hpp"
#include "results/doc.hpp"
#include "telemetry/trace.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/ledger.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"

using idseval::netsim::SimTime;
using idseval::netsim::Simulator;

namespace {

// Pre-change reference throughput (see header comment).
constexpr double kBaselineChurnEventsPerSec = 6926170.0;
constexpr double kBaselineTestbedEventsPerSec = 772274.0;
constexpr double kBaselineTestbedPacketsPerSec = 109673.0;

// Event-core numbers at the commit before batched delivery (see header
// comment: the slot-release fold changes the events-per-packet ratio).
constexpr double kPriorChurnEventsPerSec = 14246412.0;
constexpr double kPriorTestbedEventsPerSec = 3235067.0;
constexpr double kPriorTestbedPacketsPerSec = 459652.0;

// Smoke-mode floor: the testbed must clear 1.3x the pre-event-core
// baseline even in the short CI run. Hard-fails only on optimized,
// sanitizer-free builds — elsewhere wall-clock throughput is
// meaningless, so the check degrades to a warning.
constexpr double kSmokeTestbedEventsPerSecFloor =
    1.3 * kBaselineTestbedEventsPerSec;

// Scan-cache smoke floor: cached vs legacy packets/sec through the
// detection engines. Warn-only by design — it is a wall-clock *ratio*
// and compresses under sanitizers, -O0, or a noisy CI neighbour — but a
// memoized path slower than the full rescan is worth a log line
// anywhere. The byte-identity of detections is checked separately and
// hard-fails everywhere.
constexpr double kSmokeScanCacheSpeedupFloor = 1.5;

// Megaflow smoke floor (flows created per wall second). Deliberately low:
// the smoke run exists to catch order-of-magnitude collapses (e.g. a
// flow-table probe chain going quadratic), not to measure.
constexpr double kSmokeMegaflowFlowsPerSecFloor = 2000.0;

// ICS / CAN environment smoke floors (packets per wall second). These
// profiles stress the per-packet fast path with fixed-rate periodic tiny
// frames plus adaptive payload-pool growth; a collapse here means
// per-packet overhead crept into that loop. Both floors are WARN-ONLY
// everywhere — they are wall-clock rates and the profiles exist for
// realism pins (the ctest property suite), not throughput guarantees.
constexpr double kSmokeIcsPacketsPerSecFloor = 30000.0;
constexpr double kSmokeCanbusPacketsPerSecFloor = 60000.0;

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

struct ChurnResult {
  double events_per_sec = 0.0;
  std::uint64_t fallbacks = 0;
};

ChurnResult churn_run(std::uint64_t total_events) {
  Simulator sim;
  for (std::uint64_t i = 0; i < 64; ++i) {
    sim.schedule_in(SimTime::from_us(static_cast<double>(i)),
                    ChurnTimer{&sim, total_events, i, {}});
  }
  const double t0 = now_sec();
  sim.run_until(SimTime::max());
  const double dt = now_sec() - t0;
  return ChurnResult{static_cast<double>(sim.executed()) / dt,
                     sim.alloc_fallbacks()};
}

struct TestbedResult {
  double events_per_sec = 0.0;
  double packets_per_sec = 0.0;
  std::uint64_t fallbacks = 0;
};

TestbedResult testbed_run(double measure_sec) {
  idseval::harness::TestbedConfig cfg;
  cfg.profile = idseval::traffic::rt_cluster_profile();
  cfg.internal_hosts = 8;
  cfg.external_hosts = 4;
  cfg.seed = 42;
  cfg.rate_scale = 6.0;
  cfg.warmup = SimTime::from_sec(3);
  cfg.measure = SimTime::from_sec(measure_sec);
  cfg.drain = SimTime::from_sec(2);
  const auto& model =
      idseval::products::product(idseval::products::ProductId::kGuardSecure);
  idseval::harness::Testbed bed(cfg, &model, 0.5);
  std::uint64_t packets = 0;
  bed.net().lan_switch().add_mirror_batch(
      [&packets](const idseval::netsim::Packet*, std::size_t n) {
        packets += n;
      });
  const auto scenario = idseval::attack::Scenario::mixed(
      1, SimTime::zero(), cfg.measure * 0.9,
      idseval::util::hash64("bench") ^ cfg.seed, cfg.external_hosts,
      cfg.internal_hosts);
  const double t0 = now_sec();
  (void)bed.run(scenario);
  const double dt = now_sec() - t0;
  return TestbedResult{static_cast<double>(bed.sim().executed()) / dt,
                       static_cast<double>(packets) / dt,
                       bed.sim().alloc_fallbacks()};
}

struct ScanCacheSide {
  double packets_per_sec = 0.0;
  std::uint64_t detections = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_saved = 0;
  std::uint64_t boundary_rescans = 0;
};

struct ScanCacheResult {
  ScanCacheSide cached;
  ScanCacheSide legacy;
  std::uint64_t packets = 0;
  double speedup() const {
    return legacy.packets_per_sec > 0.0
               ? cached.packets_per_sec / legacy.packets_per_sec
               : 0.0;
  }
  double hit_ratio() const {
    const double total =
        static_cast<double>(cached.hits + cached.misses);
    return total > 0.0 ? static_cast<double>(cached.hits) / total : 0.0;
  }
};

// Detection-engine hot loop over interned payloads: the signature engine
// (deep inspection + stream reassembly) and the anomaly engine (Shannon
// entropy) fed the few-variant pooled payload mix the repetitive
// RT-cluster/ICS profiles produce. The packet ring is pre-built so the
// wall clock measures the engines, not make_packet; the cached and
// legacy runs see the identical sequence, so the throughput delta is the
// memo + boundary-limited reassembly and the detection counts must be
// exactly equal.
ScanCacheSide scan_cache_run(bool cache_on, std::uint64_t packets) {
  idseval::telemetry::Registry registry;
  idseval::telemetry::ScopedRegistry scope(&registry);

  // 16 interned variants, ~0.4-1 KB: mostly low-entropy repetitive
  // frames plus a signature-bearing payload and a boundary-straddling
  // fragment pair — the shape PayloadPool hands the sensors.
  const std::string traversal(idseval::attack::patterns::kDirTraversal);
  std::vector<std::shared_ptr<const std::string>> pool;
  idseval::util::Rng rng(20260808);
  for (int v = 0; v < 12; ++v) {
    std::string s(static_cast<std::size_t>(384 + 48 * v), '\0');
    for (char& ch : s) {
      ch = static_cast<char>(
          'a' + rng.index(static_cast<std::size_t>(2 + v % 5)));
    }
    pool.push_back(std::make_shared<const std::string>(std::move(s)));
  }
  pool.push_back(std::make_shared<const std::string>(
      "GET " + traversal + " HTTP/1.0 " + std::string(480, 'b')));
  pool.push_back(
      std::make_shared<const std::string>("GET /a" + traversal.substr(0, 7)));
  pool.push_back(std::make_shared<const std::string>(traversal.substr(7) +
                                                     std::string(440, 'c')));
  pool.push_back(std::make_shared<const std::string>(std::string(512, 'd')));

  idseval::ids::SignatureEngineOptions sig_opt;
  sig_opt.stream_reassembly = true;
  sig_opt.scan_cache = cache_on;
  idseval::ids::SignatureEngine signature(idseval::ids::standard_rule_set(),
                                          sig_opt);
  idseval::ids::AnomalyEngineOptions ano_opt;
  ano_opt.scan_cache = cache_on;
  idseval::ids::AnomalyEngine anomaly(ano_opt);

  constexpr std::size_t kRing = 1024;
  constexpr std::uint64_t kFlows = 32;
  std::vector<idseval::netsim::Packet> ring;
  ring.reserve(kRing);
  for (std::size_t i = 0; i < kRing; ++i) {
    idseval::netsim::FiveTuple t;
    t.src_ip = idseval::netsim::Ipv4(198, 51, 100, 1);
    t.dst_ip = idseval::netsim::Ipv4(10, 0, 0, 2);
    t.src_port = 4000;
    t.dst_port = idseval::netsim::ports::kHttp;
    const std::uint64_t flow = 1 + (i % kFlows);
    idseval::netsim::Packet p = idseval::netsim::make_packet(
        i, flow, SimTime::zero(), t, pool[(i * 7) % pool.size()]);
    p.seq = static_cast<std::uint32_t>(i);
    ring.push_back(std::move(p));
  }

  std::vector<idseval::ids::Detection> out;
  std::uint64_t detections = 0;
  const std::uint64_t learn = packets / 8;
  const double t0 = now_sec();
  for (std::uint64_t i = 0; i < packets; ++i) {
    if (i == learn) {
      anomaly.set_mode(idseval::ids::AnomalyEngine::Mode::kDetecting);
    }
    const idseval::netsim::Packet& p = ring[i % kRing];
    const SimTime now = SimTime::from_us(static_cast<double>(i));
    signature.process(p, now, out);
    anomaly.process(p, now, out);
    detections += out.size();
    out.clear();
  }
  const double dt = now_sec() - t0;

  namespace names = idseval::telemetry::names;
  ScanCacheSide side;
  side.packets_per_sec = static_cast<double>(packets) / dt;
  side.detections = detections;
  side.hits = registry.counter(names::kScanCacheHits).value();
  side.misses = registry.counter(names::kScanCacheMisses).value();
  side.bytes_saved = registry.counter(names::kScanCacheBytesSaved).value();
  side.boundary_rescans =
      registry.counter(names::kScanCacheBoundaryRescans).value();
  return side;
}

struct FanoutResult {
  double packets_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fallbacks = 0;
};

// Same-tick burst trains through the two-host switch topology. Zero
// bandwidth means no serialization gaps: every burst arrives as one
// coalescible train per link tick — the shape batched delivery exists
// for. `coalesce` off forces the one-event-per-packet reference path.
FanoutResult fanout_run(bool coalesce, int bursts,
                        std::uint32_t burst_size) {
  Simulator sim;
  idseval::netsim::Network net(sim);
  idseval::netsim::LinkSpec wire;
  wire.bandwidth_bps = 0.0;
  wire.latency = SimTime::from_us(5);
  wire.queue_capacity = 4096;
  const idseval::netsim::Ipv4 src(10, 0, 0, 1);
  const idseval::netsim::Ipv4 dst(10, 0, 0, 2);
  net.add_host("src", src, wire);
  net.add_host("dst", dst, wire);
  net.set_delivery_coalescing(coalesce);
  std::uint64_t mirrored = 0;
  net.lan_switch().add_mirror_batch(
      [&mirrored](const idseval::netsim::Packet*, std::size_t n) {
        mirrored += n;
      });
  idseval::traffic::TransactionLedger ledger;
  idseval::traffic::FlowGenerator gen(
      sim, net, &ledger, idseval::traffic::rt_cluster_profile(),
      /*seed=*/7);
  for (int i = 0; i < bursts; ++i) {
    sim.schedule_in(SimTime::from_ms(static_cast<double>(i)),
                    [&gen, src, dst, burst_size] {
                      gen.emit_burst(src, dst, 80, burst_size, 256);
                    });
  }
  const double t0 = now_sec();
  sim.run_until(SimTime::max());
  const double dt = now_sec() - t0;
  return FanoutResult{static_cast<double>(mirrored) / dt, sim.executed(),
                      sim.alloc_fallbacks()};
}

struct MegaflowResult {
  double flows_per_sec = 0.0;    ///< Ledger transactions per wall second.
  double packets_per_sec = 0.0;
  double bytes_per_probe = 0.0;  ///< Payload bytes moved per table probe.
  double probes_per_lookup = 0.0;  ///< Live-tracker mean chain length.
  std::uint64_t flows = 0;
  std::uint64_t peak_live = 0;     ///< Peak concurrently live flows.
  std::uint64_t end_live = 0;      ///< Stragglers still open at cutoff.
  std::uint64_t table_memory_bytes = 0;
  std::uint64_t fallbacks = 0;
};

// Megaflow profile at bench scale: ~10^4 hosts, flow arrivals fast
// enough that the live-flow population — not the packet rate — is the
// scaling variable (~10^6 live at full scale). A mirror tap maintains a
// FlowTuple-keyed live-flow tracker, erasing on FIN/RST, exactly the
// access pattern the per-flow state holders pay; the ledger's own flow
// table is the second table under test.
MegaflowResult megaflow_run(bool smoke) {
  Simulator sim;
  idseval::netsim::Network net(sim);
  const int internal = smoke ? 2000 : 12000;
  const int external = smoke ? 200 : 1200;
  std::vector<idseval::netsim::Ipv4> internal_hosts;
  std::vector<idseval::netsim::Ipv4> external_hosts;
  internal_hosts.reserve(static_cast<std::size_t>(internal));
  external_hosts.reserve(static_cast<std::size_t>(external));
  for (int i = 0; i < internal; ++i) {
    const idseval::netsim::Ipv4 addr(
        10, 1, static_cast<std::uint8_t>(i >> 8),
        static_cast<std::uint8_t>(i & 0xff));
    net.add_host("h" + std::to_string(i), addr);
    internal_hosts.push_back(addr);
  }
  for (int i = 0; i < external; ++i) {
    const idseval::netsim::Ipv4 addr(
        198, 51, static_cast<std::uint8_t>(i >> 8),
        static_cast<std::uint8_t>(i & 0xff));
    net.add_external_host("x" + std::to_string(i), addr);
    external_hosts.push_back(addr);
  }

  struct FlowAccum {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  idseval::netsim::FlowMap<FlowAccum> live;
  live.reserve(smoke ? (1u << 16) : (1u << 20));
  std::uint64_t packets = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t peak_live = 0;
  net.lan_switch().add_mirror_batch(
      [&](const idseval::netsim::Packet* p, std::size_t n) {
        packets += n;
        for (std::size_t i = 0; i < n; ++i) {
          const idseval::netsim::Packet& pk = p[i];
          const std::uint64_t bytes = pk.payload_bytes();
          bytes_total += bytes;
          const idseval::netsim::FlowTuple key =
              idseval::netsim::FlowTuple::from(pk.tuple).canonical();
          if (pk.flags.fin || pk.flags.rst) {
            live.erase(key);
            continue;
          }
          FlowAccum& acc = *live.try_emplace(key).first;
          ++acc.packets;
          acc.bytes += bytes;
          if (live.size() > peak_live) peak_live = live.size();
        }
      });

  idseval::traffic::EnvironmentProfile prof =
      idseval::traffic::megaflow_profile();
  prof.flows_per_sec *= smoke ? 20.0 : 200.0;  // 5k / 50k flows per sim-sec
  const double gen_sec = smoke ? 6.0 : 20.0;
  const double drain_sec = smoke ? 25.0 : 40.0;

  idseval::traffic::TransactionLedger ledger;
  idseval::traffic::FlowGenerator gen(sim, net, &ledger, prof, /*seed=*/13);
  gen.set_internal_hosts(internal_hosts);
  gen.set_external_hosts(external_hosts);

  const double t0 = now_sec();
  gen.start(SimTime::from_sec(gen_sec));
  sim.run_until(SimTime::from_sec(gen_sec + drain_sec));
  const double dt = now_sec() - t0;

  const std::uint64_t probes =
      live.stats().probes + ledger.table_stats().probes;
  MegaflowResult r;
  r.flows = ledger.size();
  r.flows_per_sec = static_cast<double>(r.flows) / dt;
  r.packets_per_sec = static_cast<double>(packets) / dt;
  r.bytes_per_probe = probes == 0 ? 0.0
                                  : static_cast<double>(bytes_total) /
                                        static_cast<double>(probes);
  r.probes_per_lookup = live.stats().probes_per_lookup();
  r.peak_live = peak_live;
  r.end_live = live.size();
  r.table_memory_bytes = live.memory_bytes();
  r.fallbacks = sim.alloc_fallbacks();
  return r;
}

struct ProfileSmokeResult {
  std::string name;
  std::uint64_t packets = 0;
  std::uint64_t flows = 0;
  double packets_per_sec = 0.0;
  double flows_per_sec = 0.0;
  std::uint64_t pool_grown_variants = 0;
  std::uint64_t fallbacks = 0;
  double floor = 0.0;  ///< Warn-only packets/sec floor for this profile.
};

// One environment profile through the raw generator + switch fast path
// (no IDS pipeline): the ics and canbus profiles are dominated by
// periodic tiny frames, so this measures exactly the per-packet overhead
// their fixed-rate loops pay. Growth is enabled for the low-entropy
// payload kinds the same way the harness enables it, so the adaptive
// pool's doubling path is on the measured loop.
ProfileSmokeResult profile_smoke_run(
    const idseval::traffic::EnvironmentProfile& prof, double floor,
    bool smoke) {
  Simulator sim;
  idseval::netsim::Network net(sim);
  std::vector<idseval::netsim::Ipv4> internal_hosts;
  std::vector<idseval::netsim::Ipv4> external_hosts;
  for (int i = 1; i <= 8; ++i) {
    const idseval::netsim::Ipv4 addr(10, 2, 0,
                                     static_cast<std::uint8_t>(i));
    net.add_host("h" + std::to_string(i), addr);
    internal_hosts.push_back(addr);
  }
  for (int i = 1; i <= 2; ++i) {
    const idseval::netsim::Ipv4 addr(198, 51, 101,
                                     static_cast<std::uint8_t>(i));
    net.add_external_host("x" + std::to_string(i), addr);
    external_hosts.push_back(addr);
  }

  std::uint64_t packets = 0;
  net.lan_switch().add_mirror_batch(
      [&packets](const idseval::netsim::Packet*, std::size_t n) {
        packets += n;
      });

  idseval::traffic::EnvironmentProfile scaled = prof;
  scaled.flows_per_sec *= smoke ? 20.0 : 100.0;
  const double gen_sec = smoke ? 8.0 : 20.0;

  idseval::traffic::PayloadPool pool(/*seed=*/29);
  for (const auto& share : scaled.mix) {
    if (share.kind == idseval::traffic::PayloadKind::kIcsControl ||
        share.kind == idseval::traffic::PayloadKind::kCanFrame) {
      pool.enable_growth(
          share.kind, idseval::traffic::PayloadPool::kGrowthMaxVariants);
    }
  }
  idseval::traffic::TransactionLedger ledger;
  idseval::traffic::FlowGenerator gen(sim, net, &ledger, scaled,
                                      /*seed=*/29, &pool);
  gen.set_internal_hosts(internal_hosts);
  gen.set_external_hosts(external_hosts);

  const double t0 = now_sec();
  gen.start(SimTime::from_sec(gen_sec));
  sim.run_until(SimTime::from_sec(gen_sec + 5.0));
  const double dt = now_sec() - t0;

  ProfileSmokeResult r;
  r.name = prof.name;
  r.packets = packets;
  r.flows = ledger.size();
  r.packets_per_sec = static_cast<double>(packets) / dt;
  r.flows_per_sec = static_cast<double>(r.flows) / dt;
  r.pool_grown_variants = pool.grown_variants();
  r.fallbacks = sim.alloc_fallbacks();
  r.floor = floor;
  return r;
}

struct ShardScalingPoint {
  std::size_t shards = 0;
  double events_per_sec = 0.0;
  double packets_per_sec = 0.0;
  std::uint64_t flows = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_shard_messages = 0;
  double barrier_stall_mean_sec = 0.0;  ///< Mean over shards.
  double barrier_stall_max_sec = 0.0;   ///< Worst shard.
  std::uint64_t fallbacks = 0;
};

// The megaflow workload spread over a distributed shard plan: every
// shard owns a full topology slice (hosts, switch, links) plus its own
// flow generator sourcing from local hosts toward destinations anywhere
// in the enclave, so a deterministic fraction of traffic crosses shards
// over the trunk fabric. Reproducible at a fixed shard count; NOT
// shard-count-invariant (N generators = N arrival streams), which is
// fine for a throughput bench — the invariant path is the central plan
// the testbed uses, pinned by the golden-hash tests.
ShardScalingPoint shard_scaling_run(std::size_t shards, bool smoke) {
  using idseval::netsim::CrossShardFabric;
  using idseval::netsim::Ipv4;
  using idseval::netsim::LinkSpec;
  using idseval::netsim::Network;
  using idseval::netsim::ShardPlan;
  using idseval::netsim::ShardedSimulator;

  const ShardPlan plan = ShardPlan::distributed(shards);
  ShardedSimulator engine{plan};
  LinkSpec trunk;
  trunk.bandwidth_bps = 10e9;
  trunk.latency = SimTime::from_us(50);
  trunk.queue_capacity = 1u << 16;
  CrossShardFabric fabric(engine, trunk);

  // One Network per shard; shards > 0 build under their own telemetry
  // registry so switch/link instruments bind shard-locally (their
  // counters are bumped from shard worker threads in threaded mode).
  struct Site {
    std::unique_ptr<Network> net;
    std::unique_ptr<idseval::traffic::TransactionLedger> ledger;
    std::unique_ptr<idseval::traffic::FlowGenerator> gen;
    std::vector<Ipv4> internal;
    std::vector<Ipv4> external;
    std::uint64_t packets = 0;
  };
  std::vector<Site> sites(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    std::optional<idseval::telemetry::ScopedRegistry> scope;
    if (s > 0) scope.emplace(engine.registry(s));
    sites[s].net = std::make_unique<Network>(engine.shard(s));
    fabric.set_switch(s, &sites[s].net->lan_switch());
  }

  const int internal = smoke ? 2000 : 12000;
  const int external = smoke ? 200 : 1200;
  std::vector<Ipv4> all_internal;
  all_internal.reserve(static_cast<std::size_t>(internal));
  for (int i = 0; i < internal; ++i) {
    const Ipv4 addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i & 0xff));
    const std::size_t home = plan.shard_of(addr);
    std::optional<idseval::telemetry::ScopedRegistry> scope;
    if (home > 0) scope.emplace(engine.registry(home));
    sites[home].net->add_host("h" + std::to_string(i), addr);
    sites[home].internal.push_back(addr);
    all_internal.push_back(addr);
    fabric.add_route(addr, home);
  }
  for (int i = 0; i < external; ++i) {
    const Ipv4 addr(198, 51, static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i & 0xff));
    const std::size_t home = plan.shard_of(addr);
    std::optional<idseval::telemetry::ScopedRegistry> scope;
    if (home > 0) scope.emplace(engine.registry(home));
    sites[home].net->add_external_host("x" + std::to_string(i), addr);
    sites[home].external.push_back(addr);
    fabric.add_route(addr, home);
  }

  idseval::traffic::EnvironmentProfile prof =
      idseval::traffic::megaflow_profile();
  prof.flows_per_sec *= smoke ? 20.0 : 200.0;
  const double gen_sec = smoke ? 6.0 : 20.0;
  const double drain_sec = smoke ? 10.0 : 20.0;

  for (std::size_t s = 0; s < shards; ++s) {
    Site& site = sites[s];
    if (site.internal.empty()) continue;
    std::optional<idseval::telemetry::ScopedRegistry> scope;
    if (s > 0) scope.emplace(engine.registry(s));
    site.net->lan_switch().add_mirror_batch(
        [&site](const idseval::netsim::Packet*, std::size_t n) {
          site.packets += n;
        });
    site.ledger = std::make_unique<idseval::traffic::TransactionLedger>();
    site.gen = std::make_unique<idseval::traffic::FlowGenerator>(
        engine.shard(s), *site.net, site.ledger.get(), prof,
        idseval::util::derive_seed(13, s));
    // Destinations span the enclave (that is what sends packets over the
    // trunks); sources stay local; arrival rate is the shard's share of
    // the total so offered load is constant across shard counts.
    site.gen->set_internal_hosts(all_internal);
    site.gen->set_source_hosts(site.internal);
    site.gen->set_external_hosts(site.external);
    site.gen->set_rate_scale(static_cast<double>(site.internal.size()) /
                             static_cast<double>(internal));
    site.gen->start(SimTime::from_sec(gen_sec));
  }

  const double t0 = now_sec();
  engine.run_until(SimTime::from_sec(gen_sec + drain_sec));
  const double dt = now_sec() - t0;

  ShardScalingPoint p;
  p.shards = shards;
  p.events_per_sec = static_cast<double>(engine.executed()) / dt;
  std::uint64_t packets = 0;
  for (const Site& site : sites) {
    packets += site.packets;
    if (site.ledger) p.flows += site.ledger->size();
  }
  p.packets_per_sec = static_cast<double>(packets) / dt;
  p.windows = engine.stats().windows;
  p.cross_shard_messages = engine.stats().total_messages();
  for (const ShardedSimulator::ShardStats& s : engine.stats().shard) {
    p.barrier_stall_mean_sec += s.barrier_stall_sec;
    p.barrier_stall_max_sec =
        std::max(p.barrier_stall_max_sec, s.barrier_stall_sec);
  }
  p.barrier_stall_mean_sec /= static_cast<double>(shards);
  p.fallbacks = engine.alloc_fallbacks();
  return p;
}

struct TraceOverheadResult {
  double sync_producer_sec = 0.0;        ///< emit+flush time, sync sink.
  double background_producer_sec = 0.0;  ///< emit+flush time, bg sink.
  std::uint64_t events = 0;
  bool files_identical = false;
};

/// Burns roughly `sec` of wall clock standing in for a cell simulation
/// between trace batches (the window the background writer drains in).
void burn(double sec) {
  const double until = now_sec() + sec;
  volatile std::uint64_t sink = 0;
  while (now_sec() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + 1;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Producer-side cost of tracing, shaped like a campaign cell: `batch`
/// events emitted over the cell's lifetime (interleaved with simulated
/// work), then one flush at the cell boundary. Only the time spent
/// inside emit()/flush()/close() counts — that is the time the sim
/// thread loses to tracing. The sync writer performs all file I/O
/// inside the boundary flush; the background writer drains during the
/// work windows, so its producer-visible time must not exceed the sync
/// writer's.
double trace_producer_run(const std::string& path, bool background,
                          int batches, int batch,
                          const std::string& line) {
  idseval::telemetry::TraceSink sink(path, 1u << 16, background);
  double spent = 0.0;
  for (int b = 0; b < batches; ++b) {
    for (int burst = 0; burst < batch; burst += 50) {
      double t0 = now_sec();
      for (int i = 0; i < 50; ++i) sink.emit(line);
      spent += now_sec() - t0;
      burn(0.0002);  // sim work between event bursts inside the cell
    }
    const double t0 = now_sec();
    sink.flush();  // cell boundary
    spent += now_sec() - t0;
  }
  const double t0 = now_sec();
  sink.close();
  spent += now_sec() - t0;
  return spent;
}

TraceOverheadResult trace_overhead_run(const std::string& out_base,
                                       bool smoke) {
  const int batches = smoke ? 10 : 50;
  const int batch = smoke ? 1000 : 2000;
  // A representative event line: the pre-rendered Doc shape producers
  // enqueue (rendering cost is identical in both modes and excluded).
  idseval::results::Doc event = idseval::results::Doc::object();
  event.set("type", "cell")
      .set("index", 17)
      .set("product", "GuardSecure")
      .set("profile", "rt_cluster")
      .set("ok", true)
      .set("mean_sec", 0.0012345);
  const std::string line = idseval::results::to_json(event);

  const std::string sync_path = out_base + ".trace_sync.jsonl";
  const std::string bg_path = out_base + ".trace_bg.jsonl";
  TraceOverheadResult r;
  r.events = static_cast<std::uint64_t>(batches) *
             static_cast<std::uint64_t>(batch);
  r.sync_producer_sec =
      trace_producer_run(sync_path, /*background=*/false, batches, batch,
                         line);
  r.background_producer_sec =
      trace_producer_run(bg_path, /*background=*/true, batches, batch,
                         line);
  r.files_identical = slurp(sync_path) == slurp(bg_path);
  std::remove(sync_path.c_str());
  std::remove(bg_path.c_str());
  return r;
}

idseval::results::Doc speed_doc(double v) {
  // Keep the report readable: ratios to 3 decimals via a decimal string
  // round-trip would change the type, so round the double itself.
  return idseval::results::Doc(std::round(v * 1000.0) / 1000.0);
}

bool write_report(const std::string& path, const ChurnResult& churn,
                  const TestbedResult& bed, const ScanCacheResult& scan,
                  const FanoutResult& fan_on, const FanoutResult& fan_off,
                  const TraceOverheadResult& trace,
                  const MegaflowResult& mega,
                  const std::vector<ProfileSmokeResult>& profiles,
                  const std::vector<ShardScalingPoint>& scaling,
                  bool smoke) {
  using idseval::results::Doc;
  Doc report = Doc::object();
  report.set("smoke", smoke);

  Doc baseline = Doc::object();
  baseline.set("churn_events_per_sec", kBaselineChurnEventsPerSec)
      .set("testbed_events_per_sec", kBaselineTestbedEventsPerSec)
      .set("testbed_packets_per_sec", kBaselineTestbedPacketsPerSec);
  report.set("baseline", std::move(baseline));

  Doc prior = Doc::object();
  prior.set("churn_events_per_sec", kPriorChurnEventsPerSec)
      .set("testbed_events_per_sec", kPriorTestbedEventsPerSec)
      .set("testbed_packets_per_sec", kPriorTestbedPacketsPerSec)
      .set("note",
           "pre-batching event core; lazy slot release folded ~2 of ~7 "
           "events/packet, so compare packets/sec across that change, "
           "not events/sec");
  report.set("prior", std::move(prior));

  Doc current = Doc::object();
  current.set("churn_events_per_sec", std::round(churn.events_per_sec))
      .set("testbed_events_per_sec", std::round(bed.events_per_sec))
      .set("testbed_packets_per_sec", std::round(bed.packets_per_sec));
  report.set("current", std::move(current));

  Doc speedup = Doc::object();
  speedup
      .set("churn",
           speed_doc(churn.events_per_sec / kBaselineChurnEventsPerSec))
      .set("testbed_events",
           speed_doc(bed.events_per_sec / kBaselineTestbedEventsPerSec))
      .set("testbed_packets",
           speed_doc(bed.packets_per_sec / kBaselineTestbedPacketsPerSec))
      .set("testbed_packets_vs_prior",
           speed_doc(bed.packets_per_sec / kPriorTestbedPacketsPerSec));
  report.set("speedup", std::move(speedup));

  Doc fanout = Doc::object();
  fanout
      .set("coalesced_packets_per_sec",
           std::round(fan_on.packets_per_sec))
      .set("per_packet_packets_per_sec",
           std::round(fan_off.packets_per_sec))
      .set("coalesced_events", fan_on.events)
      .set("per_packet_events", fan_off.events)
      .set("speedup",
           speed_doc(fan_on.packets_per_sec / fan_off.packets_per_sec))
      .set("event_reduction",
           speed_doc(static_cast<double>(fan_off.events) /
                     static_cast<double>(fan_on.events)));
  report.set("fanout", std::move(fanout));

  Doc scan_cache = Doc::object();
  scan_cache.set("packets", scan.packets)
      .set("cached_packets_per_sec",
           std::round(scan.cached.packets_per_sec))
      .set("legacy_packets_per_sec",
           std::round(scan.legacy.packets_per_sec))
      .set("speedup", speed_doc(scan.speedup()))
      .set("hit_ratio", speed_doc(scan.hit_ratio()))
      .set("hits", scan.cached.hits)
      .set("misses", scan.cached.misses)
      .set("bytes_saved", scan.cached.bytes_saved)
      .set("boundary_rescans", scan.cached.boundary_rescans)
      .set("detections_identical",
           scan.cached.detections == scan.legacy.detections);
  report.set("scan_cache", std::move(scan_cache));

  Doc trace_overhead = Doc::object();
  trace_overhead.set("events", trace.events)
      .set("sync_producer_sec",
           std::round(trace.sync_producer_sec * 1e6) / 1e6)
      .set("background_producer_sec",
           std::round(trace.background_producer_sec * 1e6) / 1e6)
      .set("producer_time_ratio",
           speed_doc(trace.sync_producer_sec > 0.0
                         ? trace.background_producer_sec /
                               trace.sync_producer_sec
                         : 0.0))
      .set("files_identical", trace.files_identical);
  report.set("trace_overhead", std::move(trace_overhead));

  Doc megaflow = Doc::object();
  megaflow.set("flows", mega.flows)
      .set("flows_per_sec", std::round(mega.flows_per_sec))
      .set("packets_per_sec", std::round(mega.packets_per_sec))
      .set("bytes_per_table_probe", speed_doc(mega.bytes_per_probe))
      .set("probes_per_lookup", speed_doc(mega.probes_per_lookup))
      .set("peak_live_flows", mega.peak_live)
      .set("end_live_flows", mega.end_live)
      .set("tracker_memory_bytes", mega.table_memory_bytes);
  report.set("megaflow", std::move(megaflow));

  Doc env_profiles = Doc::array();
  for (const ProfileSmokeResult& p : profiles) {
    Doc entry = Doc::object();
    entry.set("profile", p.name)
        .set("packets", p.packets)
        .set("flows", p.flows)
        .set("packets_per_sec", std::round(p.packets_per_sec))
        .set("flows_per_sec", std::round(p.flows_per_sec))
        .set("pool_grown_variants", p.pool_grown_variants)
        .set("floor_packets_per_sec", p.floor);
    env_profiles.push(std::move(entry));
  }
  report.set("environment_profiles", std::move(env_profiles));

  Doc shard_scaling = Doc::array();
  for (const ShardScalingPoint& p : scaling) {
    Doc point = Doc::object();
    point.set("shards", p.shards)
        .set("events_per_sec", std::round(p.events_per_sec))
        .set("packets_per_sec", std::round(p.packets_per_sec))
        .set("flows", p.flows)
        .set("windows", p.windows)
        .set("cross_shard_messages", p.cross_shard_messages)
        .set("barrier_stall_mean_sec",
             std::round(p.barrier_stall_mean_sec * 1e6) / 1e6)
        .set("barrier_stall_max_sec",
             std::round(p.barrier_stall_max_sec * 1e6) / 1e6)
        .set("speedup_vs_one_shard",
             speed_doc(scaling[0].events_per_sec > 0.0
                           ? p.events_per_sec / scaling[0].events_per_sec
                           : 0.0));
    shard_scaling.push(std::move(point));
  }
  Doc scaling_doc = Doc::object();
  scaling_doc
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("note",
           "distributed plan, reproducible per shard count but not "
           "shard-count-invariant; wall-clock speedup requires >= N "
           "physical cores")
      .set("points", std::move(shard_scaling));
  report.set("shard_scaling", std::move(scaling_doc));

  report.set("callback_heap_fallbacks",
             churn.fallbacks + bed.fallbacks + fan_on.fallbacks +
                 fan_off.fallbacks + mega.fallbacks);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_netsim: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = idseval::results::to_json_pretty(report);
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_netsim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_netsim [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  const std::uint64_t churn_events = smoke ? 200000 : 2000000;
  const int reps = smoke ? 1 : 3;
  const double measure_sec = smoke ? 3.0 : 12.0;

  (void)churn_run(churn_events / 10);  // warm-up
  ChurnResult churn;
  for (int i = 0; i < reps; ++i) {
    const ChurnResult r = churn_run(churn_events);
    if (r.events_per_sec > churn.events_per_sec) churn = r;
  }
  std::printf("churn:   %12.0f events/sec  (baseline %.0f, %.2fx)\n",
              churn.events_per_sec, kBaselineChurnEventsPerSec,
              churn.events_per_sec / kBaselineChurnEventsPerSec);

  TestbedResult bed;
  for (int i = 0; i < reps; ++i) {
    const TestbedResult r = testbed_run(measure_sec);
    if (r.events_per_sec > bed.events_per_sec) bed = r;
  }
  std::printf("testbed: %12.0f events/sec  (baseline %.0f, %.2fx)\n",
              bed.events_per_sec, kBaselineTestbedEventsPerSec,
              bed.events_per_sec / kBaselineTestbedEventsPerSec);
  std::printf("testbed: %12.0f packets/sec (baseline %.0f, %.2fx)\n",
              bed.packets_per_sec, kBaselineTestbedPacketsPerSec,
              bed.packets_per_sec / kBaselineTestbedPacketsPerSec);

  ScanCacheResult scan;
  scan.packets = smoke ? 150000 : 1200000;
  for (int i = 0; i < reps; ++i) {
    const ScanCacheSide on = scan_cache_run(true, scan.packets);
    if (on.packets_per_sec > scan.cached.packets_per_sec) scan.cached = on;
    const ScanCacheSide off = scan_cache_run(false, scan.packets);
    if (off.packets_per_sec > scan.legacy.packets_per_sec) {
      scan.legacy = off;
    }
  }
  std::printf("scancache:%11.0f packets/sec cached, %.0f legacy "
              "(%.2fx, hit ratio %.3f, %.1f MB saved, %llu boundary "
              "rescans)\n",
              scan.cached.packets_per_sec, scan.legacy.packets_per_sec,
              scan.speedup(), scan.hit_ratio(),
              static_cast<double>(scan.cached.bytes_saved) / 1048576.0,
              static_cast<unsigned long long>(
                  scan.cached.boundary_rescans));

  const int bursts = smoke ? 50 : 400;
  const std::uint32_t burst_size = 64;
  FanoutResult fan_on;
  FanoutResult fan_off;
  for (int i = 0; i < reps; ++i) {
    const FanoutResult on = fanout_run(true, bursts, burst_size);
    if (on.packets_per_sec > fan_on.packets_per_sec) fan_on = on;
    const FanoutResult off = fanout_run(false, bursts, burst_size);
    if (off.packets_per_sec > fan_off.packets_per_sec) fan_off = off;
  }
  std::printf("fanout:  %12.0f packets/sec coalesced, %.0f per-packet "
              "(%.2fx, %.2fx fewer events)\n",
              fan_on.packets_per_sec, fan_off.packets_per_sec,
              fan_on.packets_per_sec / fan_off.packets_per_sec,
              static_cast<double>(fan_off.events) /
                  static_cast<double>(fan_on.events));

  const TraceOverheadResult trace = trace_overhead_run(out, smoke);
  std::printf("trace:   %12.6f s producer time sync, %.6f s background "
              "(%llu events, files %s)\n",
              trace.sync_producer_sec, trace.background_producer_sec,
              static_cast<unsigned long long>(trace.events),
              trace.files_identical ? "identical" : "DIFFER");

  const MegaflowResult mega = megaflow_run(smoke);
  std::printf("megaflow:%12.0f flows/sec   (%llu flows, peak %llu live, "
              "%.0f packets/sec)\n",
              mega.flows_per_sec,
              static_cast<unsigned long long>(mega.flows),
              static_cast<unsigned long long>(mega.peak_live),
              mega.packets_per_sec);
  std::printf("megaflow:%12.1f bytes/table-probe, %.2f probes/lookup, "
              "%.1f MB tracker\n",
              mega.bytes_per_probe, mega.probes_per_lookup,
              static_cast<double>(mega.table_memory_bytes) / 1048576.0);

  // ICS / CAN environment smoke: the periodic tiny-frame fast path with
  // adaptive payload-pool growth enabled, floors warn-only (see the
  // constants).
  std::vector<ProfileSmokeResult> profiles;
  profiles.push_back(profile_smoke_run(idseval::traffic::ics_profile(),
                                       kSmokeIcsPacketsPerSecFloor,
                                       smoke));
  profiles.push_back(profile_smoke_run(idseval::traffic::canbus_profile(),
                                       kSmokeCanbusPacketsPerSecFloor,
                                       smoke));
  for (const ProfileSmokeResult& p : profiles) {
    std::printf("%-8s:%12.0f packets/sec (%llu packets, %llu flows, "
                "%llu grown payload variants)\n",
                p.name.c_str(), p.packets_per_sec,
                static_cast<unsigned long long>(p.packets),
                static_cast<unsigned long long>(p.flows),
                static_cast<unsigned long long>(p.pool_grown_variants));
  }

  std::vector<ShardScalingPoint> scaling;
  for (const std::size_t shards :
       smoke ? std::vector<std::size_t>{1, 2}
             : std::vector<std::size_t>{1, 2, 4, 8}) {
    const ShardScalingPoint p = shard_scaling_run(shards, smoke);
    scaling.push_back(p);
    std::printf("shards=%zu:%11.0f events/sec %10.0f packets/sec "
                "(%.2fx, %llu windows, %llu cross-shard msgs, "
                "stall mean %.3fs max %.3fs)\n",
                p.shards, p.events_per_sec, p.packets_per_sec,
                p.events_per_sec / scaling[0].events_per_sec,
                static_cast<unsigned long long>(p.windows),
                static_cast<unsigned long long>(p.cross_shard_messages),
                p.barrier_stall_mean_sec, p.barrier_stall_max_sec);
  }

  std::uint64_t fallbacks = churn.fallbacks + bed.fallbacks +
                            fan_on.fallbacks + fan_off.fallbacks +
                            mega.fallbacks;
  for (const ProfileSmokeResult& p : profiles) fallbacks += p.fallbacks;
  std::printf("callback heap fallbacks: %llu\n",
              static_cast<unsigned long long>(fallbacks));

  if (!write_report(out, churn, bed, scan, fan_on, fan_off, trace, mega,
                    profiles, scaling, smoke)) {
    return 1;
  }
  std::printf("report: %s\n", out.c_str());

  // Byte-identity between writer modes is deterministic (one FIFO feeds
  // both), so it hard-fails everywhere; the timing comparison is noisy
  // on shared CI hardware and stays warn-only.
  if (!trace.files_identical) {
    std::fprintf(stderr,
                 "bench_netsim: FAIL — background and sync trace files "
                 "differ\n");
    return 1;
  }
  if (trace.background_producer_sec > trace.sync_producer_sec * 1.5) {
    std::fprintf(stderr,
                 "bench_netsim: warning — background writer producer "
                 "time %.6fs exceeds sync %.6fs\n",
                 trace.background_producer_sec, trace.sync_producer_sec);
  }

  // The scan cache must be a pure optimization: identical packet
  // sequences through cached and legacy engines produce identical
  // detection counts deterministically, so a mismatch hard-fails on any
  // build. The speedup floor below is a wall-clock ratio and stays
  // warn-only (see kSmokeScanCacheSpeedupFloor).
  if (scan.cached.detections != scan.legacy.detections) {
    std::fprintf(stderr,
                 "bench_netsim: FAIL — scan cache changed detections "
                 "(%llu cached vs %llu legacy)\n",
                 static_cast<unsigned long long>(scan.cached.detections),
                 static_cast<unsigned long long>(scan.legacy.detections));
    return 1;
  }
  if (scan.speedup() < kSmokeScanCacheSpeedupFloor) {
    std::fprintf(stderr,
                 "bench_netsim: warning — scan cache speedup %.2fx below "
                 "the %.1fx floor (warn-only: wall-clock ratio, "
                 "compresses on unoptimized/sanitized builds)\n",
                 scan.speedup(), kSmokeScanCacheSpeedupFloor);
  }

  // Smoke-mode regression floor for CI: a real throughput collapse shows
  // up even in the short run. Only meaningful on optimized builds; under
  // sanitizers or -O0 the floor downgrades to a warning.
  if (smoke && bed.events_per_sec < kSmokeTestbedEventsPerSecFloor) {
    if (optimized_build()) {
      std::fprintf(stderr,
                   "bench_netsim: FAIL — smoke testbed ran at %.0f "
                   "events/sec, floor is %.0f\n",
                   bed.events_per_sec, kSmokeTestbedEventsPerSecFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "bench_netsim: warning — smoke floor %.0f events/sec "
                 "not met (%.0f), ignored on unoptimized/sanitized "
                 "builds\n",
                 kSmokeTestbedEventsPerSecFloor, bed.events_per_sec);
  }

  // Same policy for the megaflow flow-rate floor: a probe-chain blowup
  // in the flow table shows up as orders of magnitude here.
  if (smoke && mega.flows_per_sec < kSmokeMegaflowFlowsPerSecFloor) {
    if (optimized_build()) {
      std::fprintf(stderr,
                   "bench_netsim: FAIL — smoke megaflow ran at %.0f "
                   "flows/sec, floor is %.0f\n",
                   mega.flows_per_sec, kSmokeMegaflowFlowsPerSecFloor);
      return 1;
    }
    std::fprintf(stderr,
                 "bench_netsim: warning — megaflow smoke floor %.0f "
                 "flows/sec not met (%.0f), ignored on "
                 "unoptimized/sanitized builds\n",
                 kSmokeMegaflowFlowsPerSecFloor, mega.flows_per_sec);
  }

  // ICS/CAN environment floors stay warn-only on every build (see the
  // constants): the profiles pin realism properties in ctest; the bench
  // section only flags order-of-magnitude fast-path collapses.
  if (smoke) {
    for (const ProfileSmokeResult& p : profiles) {
      if (p.packets_per_sec < p.floor) {
        std::fprintf(stderr,
                     "bench_netsim: warning — %s smoke floor %.0f "
                     "packets/sec not met (%.0f), warn-only\n",
                     p.name.c_str(), p.floor, p.packets_per_sec);
      }
    }
  }

  // Shard-scaling floor — warn-only by design: CI containers often pin
  // one core, where N shards time-slice a single CPU and the barrier
  // protocol is pure overhead, so a hard wall-clock floor would gate on
  // the machine, not the code. A collapse below half the 1-shard rate
  // at 2 shards is still worth surfacing in the log.
  if (scaling.size() >= 2 && scaling[0].events_per_sec > 0.0) {
    const double ratio =
        scaling[1].events_per_sec / scaling[0].events_per_sec;
    if (ratio < 0.5) {
      std::fprintf(stderr,
                   "bench_netsim: warning — 2-shard run at %.2fx the "
                   "1-shard rate (floor 0.5x, warn-only: needs >= 2 "
                   "cores to scale, %u available)\n",
                   ratio, std::thread::hardware_concurrency());
    }
  }

  // The default-profile hot path must never spill a callback to the
  // heap — that regression is deterministic, so the bench enforces it.
  if (fallbacks != 0) {
    std::fprintf(stderr,
                 "bench_netsim: FAIL — %llu callback(s) exceeded the "
                 "inline buffer on the default profile\n",
                 static_cast<unsigned long long>(fallbacks));
    return 1;
  }
  return 0;
}
