// Randomized batch-invariance differential test. Every packet hand-off
// takes a batch (a single packet is a batch of one), so the same traffic
// must produce the same outcome however it is cut into batches. Each
// seed draws a random packet stream — mgmt-port packets, FIN/RST flow
// ends, blocked sources, tap-filtered ports, attack payloads — and runs
// it twice through an identical rig: once split into batches at random
// boundaries, once as batches of one. Stats, detection and alert
// sequences, every telemetry instrument, and host CPU fractions must
// agree.
//
// Two rigs: switch -> pipeline (no load balancer, and each LbStrategy
// mirrored and in-line) -> sensors -> analyzers -> monitor -> console,
// driven at the switch; and host agents (with reports over the network
// to a collection host), driven at host delivery.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/patterns.hpp"
#include "ids/host_agent.hpp"
#include "ids/pipeline.hpp"
#include "ids/rules.hpp"
#include "netsim/network.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::ids {
namespace {

using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

constexpr int kSeeds = 6;
constexpr std::uint16_t kFilteredPort = 2222;  // excluded by the tap

/// Packets arriving together at one instant.
struct Tick {
  SimTime at;
  std::vector<Packet> packets;
};

std::string payload_for(util::Rng& rng) {
  switch (rng.index(6)) {
    case 0:
      return util::cat("GET ", attack::patterns::kDirTraversal,
                       " HTTP/1.0\r\n");
    case 1:
      return util::cat("GET ", attack::patterns::kCmdExe, " HTTP/1.0\r\n");
    case 2:
      return std::string(attack::patterns::kShellInvoke) + " id";
    default:
      return std::string(16 + rng.index(400), static_cast<char>(
                                                  'a' + rng.index(26)));
  }
}

/// A random stream over `sources` x `dests`: one in eight packets is
/// mgmt-port traffic, one in eight hits the tap-filtered port, one in
/// six ends its flow (FIN or RST), and a third carry attack payloads.
std::vector<Tick> random_stream(std::uint64_t seed,
                                const std::vector<Ipv4>& sources,
                                const std::vector<Ipv4>& dests) {
  util::Rng rng(seed);
  std::vector<Tick> ticks;
  SimTime at = SimTime::from_ms(1);
  std::uint64_t packet_id = 1;
  for (int t = 0; t < 120; ++t) {
    at += SimTime::from_us(static_cast<double>(50 + rng.index(4000)));
    Tick tick{at, {}};
    const std::size_t n = 1 + rng.index(12);
    for (std::size_t i = 0; i < n; ++i) {
      netsim::FiveTuple tuple;
      tuple.src_ip = sources[rng.index(sources.size())];
      tuple.dst_ip = dests[rng.index(dests.size())];
      const std::uint64_t flow = 1 + rng.index(24);
      tuple.src_port = static_cast<std::uint16_t>(40000 + flow);
      switch (rng.index(8)) {
        case 0:
          tuple.dst_port = kMgmtPort;
          break;
        case 1:
          tuple.dst_port = kFilteredPort;
          break;
        default:
          tuple.dst_port = netsim::ports::kHttp;
      }
      netsim::TcpFlags flags;
      if (rng.index(6) == 0) {
        (rng.index(2) == 0 ? flags.fin : flags.rst) = true;
      }
      tick.packets.push_back(netsim::make_packet(packet_id++, flow, at, tuple,
                                                 payload_for(rng), flags));
    }
    ticks.push_back(std::move(tick));
  }
  return ticks;
}

/// Schedules every tick's arrival through `entry`: split at random
/// boundaries (`split_seed` != 0) or as batches of one (`split_seed` ==
/// 0).
template <class Entry>
void schedule_stream(netsim::Simulator& sim, const std::vector<Tick>& ticks,
                     std::uint64_t split_seed, Entry entry) {
  auto rng = std::make_shared<util::Rng>(split_seed);
  for (const Tick& tick : ticks) {
    sim.schedule_at(tick.at, [&tick, rng, split_seed, entry] {
      const std::size_t n = tick.packets.size();
      std::size_t first = 0;
      while (first < n) {
        const std::size_t count =
            split_seed == 0 ? 1 : 1 + rng->index(n - first);
        entry(tick.packets.data() + first, count);
        first += count;
      }
    });
  }
}

void dump_registry(const telemetry::Registry& reg,
                   std::vector<std::string>& out) {
  for (const auto& [name, c] : reg.counters()) {
    out.push_back(util::cat(name, "=", c.value()));
  }
  for (const auto& [name, l] : reg.latencies()) {
    out.push_back(util::cat(name, " n=", l.stats().count(), " mean=",
                            util::fmt_fixed(l.stats().mean(), 12)));
  }
}

std::string describe(const Detection& d) {
  return util::cat(d.when.ns(), " ", d.flow_id, " ", d.rule, " ",
                   d.severity, " ", util::fmt_fixed(d.confidence, 9));
}

std::string describe(const SensorStats& s) {
  return util::cat("offered=", s.offered, " processed=", s.processed,
                   " dropped_queue=", s.dropped_queue,
                   " dropped_failed=", s.dropped_failed,
                   " detections=", s.detections, " failures=", s.failures);
}

struct PipelineCase {
  bool use_lb = false;
  LbStrategy strategy = LbStrategy::kFlowHash;
  bool in_line = false;
};

std::string case_name(const PipelineCase& c) {
  if (!c.use_lb) return "no-lb";
  return util::cat(to_string(c.strategy), c.in_line ? " in-line" : "");
}

/// Runs one pipeline rig over `ticks` and renders everything observable.
std::vector<std::string> run_pipeline(const PipelineCase& c,
                                      std::uint64_t seed,
                                      const std::vector<Tick>& ticks,
                                      std::uint64_t split_seed) {
  telemetry::Registry reg;
  telemetry::ScopedRegistry scope(&reg);
  netsim::Simulator sim;
  netsim::Network net(sim);
  for (std::uint8_t h = 1; h <= 4; ++h) {
    net.add_host(util::cat("node", int{h}), Ipv4(10, 0, 0, h));
  }
  net.add_external_host("ext1", Ipv4(198, 51, 100, 1));
  net.add_external_host("ext2", Ipv4(198, 51, 100, 2));

  util::Rng rng(seed ^ 0x5eed);
  PipelineConfig config;
  config.sensor_count = 1 + rng.index(3);
  config.analyzer_count = 1 + rng.index(config.sensor_count);
  config.use_load_balancer = c.use_lb;
  config.lb.strategy = c.strategy;
  config.lb.in_line = c.in_line;
  config.lb.queue_capacity = 4 + rng.index(24);
  config.lb.ops_per_packet = 2e6;
  config.rules = standard_rule_set();
  config.anomaly_engine = rng.index(2) == 0;
  config.sensor.queue_capacity = 2 + rng.index(12);
  config.sensor.base_ops_per_packet = 2e5 + 1e5 * rng.index(8);
  config.sensor.overload_tolerance = SimTime::from_ms(2);
  config.sensor.recovery = RecoveryPolicy::kAppRestart;
  config.sensor.restart_delay = SimTime::from_ms(40);
  config.tap_filter.exclude_dst_ports = {kFilteredPort};
  config.tap_filter.exclude_internal_to_internal = rng.index(2) == 0;
  config.monitor.evict_on_flow_end = rng.index(2) == 0;
  config.console.reaction_delay = SimTime::from_ms(20);
  // Severe threats make the console block their source at the switch.
  config.console.policy = {PolicyRule{4, 0.0, ReactionAction::kBlockSource}};

  Pipeline pipeline(sim, net, config);
  pipeline.attach();
  netsim::Switch& sw = net.lan_switch();
  // One source is blocked for the first half of the stream and again
  // from three quarters on; in between the block list is empty, so whole
  // batches take the switch's unfiltered path.
  const Ipv4 blocked(198, 51, 100, 2);
  sw.block_source(blocked);
  sim.schedule_at(ticks[ticks.size() / 2].at,
                  [&sw, blocked] { sw.unblock_source(blocked); });
  sim.schedule_at(ticks[3 * ticks.size() / 4].at,
                  [&sw, blocked] { sw.block_source(blocked); });

  // Re-wire sensor -> analyzer exactly as the pipeline does, recording
  // each detection batch on the way.
  std::vector<std::string> detections;
  const auto& analyzers = pipeline.analyzers();
  for (std::size_t i = 0; i < pipeline.sensors().size(); ++i) {
    pipeline.sensors()[i]->set_on_detections(
        [&detections, &analyzers, i](const Detection* d, std::size_t n) {
          for (std::size_t k = 0; k < n; ++k) {
            detections.push_back(util::cat("sensor", i, " ", describe(d[k])));
          }
          analyzers[i % analyzers.size()]->submit_batch(d, n);
        });
  }

  pipeline.set_learning(true);
  sim.schedule_at(ticks[ticks.size() / 3].at,
                  [&pipeline] { pipeline.set_learning(false); });
  schedule_stream(sim, ticks, split_seed,
                  [&sw](const Packet* p, std::size_t n) {
                    sw.receive_batch(p, n);
                  });
  sim.run_until();

  std::vector<std::string> out = detections;
  const netsim::SwitchStats& ss = sw.stats();
  out.push_back(util::cat("switch forwarded=", ss.forwarded, " no_route=",
                          ss.no_route, " blocked=", ss.blocked,
                          " mirrored=", ss.mirrored));
  const PipelineTotals t = pipeline.totals();
  out.push_back(util::cat("tapped=", t.packets_tapped, " filtered=",
                          t.packets_filtered, " lb_dropped=", t.lb_dropped,
                          " alerts=", t.alerts));
  if (LoadBalancer* lb = pipeline.load_balancer()) {
    const LoadBalancerStats& ls = lb->stats();
    std::string line = util::cat("lb offered=", ls.offered, " forwarded=",
                                 ls.forwarded, " dropped=", ls.dropped,
                                 " pin_evictions=", ls.pin_evictions);
    for (const std::uint64_t n : ls.per_sensor) line += util::cat(" ", n);
    out.push_back(line);
  }
  for (const auto& s : pipeline.sensors()) {
    out.push_back(describe(s->stats()));
  }
  for (const auto& a : analyzers) {
    const AnalyzerStats& as = a->stats();
    out.push_back(util::cat("analyzer in=", as.detections_in, " out=",
                            as.reports_out, " merged=", as.merged,
                            " escalations=", as.escalations));
  }
  out.push_back(util::cat("console blocks=",
                          pipeline.console()->stats().blocks_issued,
                          " blocked_now=", sw.blocked_count()));
  for (const Alert& a : pipeline.monitor().log()) {
    out.push_back(util::cat("alert ", a.raised.ns(), " ", a.flow_id, " ",
                            a.rule, " ", a.severity));
  }
  dump_registry(reg, out);
  return out;
}

TEST(BatchInvarianceTest, PipelineRigMatchesBatchesOfOne) {
  std::vector<PipelineCase> cases = {{false, LbStrategy::kFlowHash, false}};
  for (const LbStrategy s :
       {LbStrategy::kNone, LbStrategy::kStaticByHost, LbStrategy::kFlowHash,
        LbStrategy::kLeastLoaded}) {
    cases.push_back({true, s, false});
    cases.push_back({true, s, true});
  }
  const std::vector<Ipv4> sources = {
      Ipv4(198, 51, 100, 1), Ipv4(198, 51, 100, 2), Ipv4(10, 0, 0, 1),
      Ipv4(10, 0, 0, 3)};
  const std::vector<Ipv4> dests = {Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                                   Ipv4(10, 0, 0, 4), Ipv4(10, 0, 0, 9)};
  std::size_t detections_seen = 0;
  for (const PipelineCase& c : cases) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(util::cat(case_name(c), " seed ", seed));
      const std::vector<Tick> ticks =
          random_stream(seed * 7919, sources, dests);
      const std::vector<std::string> split =
          run_pipeline(c, seed, ticks, /*split_seed=*/seed * 31 + 1);
      const std::vector<std::string> singles =
          run_pipeline(c, seed, ticks, /*split_seed=*/0);
      EXPECT_EQ(split, singles);
      // Detection lines ("sensor<i> ...") lead each rendering.
      for (const std::string& line : split) {
        if (line.rfind("sensor", 0) == 0) ++detections_seen;
      }
    }
  }
  // The streams must actually exercise detection, not compare empties.
  EXPECT_GT(detections_seen, 100u);
}

struct AgentOutcome {
  std::vector<std::string> lines;
  std::size_t detections = 0;
  std::vector<double> ids_cpu;
  std::vector<double> total_cpu;
};

/// Runs one host-agent rig: agents on three hosts, reports to host 1 over
/// the network, traffic delivered straight to the hosts.
AgentOutcome run_agents(std::uint64_t seed, const std::vector<Tick>& ticks,
                        std::uint64_t split_seed) {
  telemetry::Registry reg;
  telemetry::ScopedRegistry scope(&reg);
  netsim::Simulator sim;
  netsim::Network net(sim);
  util::Rng rng(seed ^ 0xa9e7);
  std::vector<netsim::Host*> hosts;
  for (std::uint8_t h = 1; h <= 3; ++h) {
    hosts.push_back(net.add_host(util::cat("node", int{h}),
                                 Ipv4(10, 0, 0, h), {}, 1e9));
  }
  net.add_external_host("ext1", Ipv4(198, 51, 100, 1));

  HostAgentConfig ac;
  ac.logging = static_cast<LoggingLevel>(rng.index(3));
  ac.cpu_share = 0.1 + 0.1 * static_cast<double>(rng.index(4));
  ac.report_over_network = true;
  ac.report_sink = Ipv4(10, 0, 0, 1);
  SensorConfig sc;
  sc.queue_capacity = 2 + rng.index(10);
  sc.base_ops_per_packet = 2e4 + 2e4 * static_cast<double>(rng.index(6));
  sc.overload_tolerance = SimTime::from_ms(3);
  sc.recovery = RecoveryPolicy::kColdReboot;
  sc.reboot_delay = SimTime::from_ms(20);
  const bool anomaly = rng.index(2) == 0;

  std::vector<std::string> detections;
  std::vector<std::unique_ptr<HostAgent>> agents;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    HostAgentConfig cfg = ac;
    cfg.name = util::cat("agent", i);
    auto agent = std::make_unique<HostAgent>(sim, net, *hosts[i], cfg, sc);
    agent->set_signature_engine(std::make_unique<SignatureEngine>(
        standard_rule_set(), SignatureEngineOptions{0.5, true}));
    if (anomaly) {
      agent->set_anomaly_engine(
          std::make_unique<AnomalyEngine>(AnomalyEngineOptions{}));
    }
    agent->set_report_channel(nullptr, 0, net.alloc_lane());
    agent->set_on_detection([&detections, &sim, i](const Detection& d) {
      detections.push_back(
          util::cat("agent", i, " at ", sim.now().ns(), " ", describe(d)));
    });
    agent->attach();
    agents.push_back(std::move(agent));
  }
  for (netsim::Host* h : hosts) h->begin_accounting(SimTime::zero());
  if (anomaly) {
    sim.schedule_at(ticks[ticks.size() / 3].at, [&agents] {
      for (const auto& a : agents) {
        a->anomaly_engine()->set_mode(AnomalyEngine::Mode::kDetecting);
      }
    });
  }
  schedule_stream(sim, ticks, split_seed,
                  [&net](const Packet* p, std::size_t n) {
                    // Each same-destination run lands on its host, in
                    // stream order.
                    std::size_t i = 0;
                    while (i < n) {
                      std::size_t j = i + 1;
                      while (j < n && p[j].tuple.dst_ip == p[i].tuple.dst_ip) {
                        ++j;
                      }
                      net.find_host(p[i].tuple.dst_ip)->deliver_batch(p + i,
                                                                      j - i);
                      i = j;
                    }
                  });
  sim.run_until();

  AgentOutcome out;
  out.lines = detections;
  out.detections = detections.size();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    hosts[i]->end_accounting(sim.now());
    out.lines.push_back(util::cat("agent", i, " ",
                                  describe(agents[i]->sensor().stats()),
                                  " reports_sent=",
                                  agents[i]->reports_sent(), " received=",
                                  hosts[i]->packets_received()));
    out.ids_cpu.push_back(hosts[i]->ids_cpu_fraction());
    out.total_cpu.push_back(hosts[i]->total_cpu_fraction());
  }
  dump_registry(reg, out.lines);
  return out;
}

TEST(BatchInvarianceTest, HostAgentRigMatchesBatchesOfOne) {
  const std::vector<Ipv4> sources = {Ipv4(198, 51, 100, 1),
                                     Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 3)};
  const std::vector<Ipv4> dests = {Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                                   Ipv4(10, 0, 0, 3)};
  std::size_t detections_seen = 0;
  for (std::uint64_t seed = 1; seed <= 2 * kSeeds; ++seed) {
    SCOPED_TRACE(util::cat("seed ", seed));
    const std::vector<Tick> ticks = random_stream(seed * 104729, sources,
                                                  dests);
    const AgentOutcome split = run_agents(seed, ticks, seed * 17 + 3);
    const AgentOutcome singles = run_agents(seed, ticks, 0);
    EXPECT_EQ(split.lines, singles.lines);
    ASSERT_EQ(split.ids_cpu.size(), singles.ids_cpu.size());
    for (std::size_t i = 0; i < split.ids_cpu.size(); ++i) {
      // One batch charges the summed logging and analysis ops at once;
      // batches of one add them one by one. Same total, up to rounding.
      EXPECT_DOUBLE_EQ(split.ids_cpu[i], singles.ids_cpu[i]);
      EXPECT_DOUBLE_EQ(split.total_cpu[i], singles.total_cpu[i]);
      EXPECT_GT(split.ids_cpu[i], 0.0);
    }
    detections_seen += split.detections;
  }
  EXPECT_GT(detections_seen, 50u);
}

}  // namespace
}  // namespace idseval::ids
