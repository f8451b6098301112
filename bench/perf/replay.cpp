#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <utility>

#include "ids/host_agent.hpp"
#include "netsim/network.hpp"
#include "telemetry/registry.hpp"

namespace idseval::bench {
namespace {

using Clock = std::chrono::steady_clock;
using netsim::Packet;
using netsim::SimTime;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_per(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Engines exactly as ids::Pipeline builds them.
std::unique_ptr<ids::SignatureEngine> make_signature(
    const ids::PipelineConfig& c) {
  return std::make_unique<ids::SignatureEngine>(
      c.rules,
      ids::SignatureEngineOptions{c.sensitivity, true, c.stream_reassembly});
}

std::unique_ptr<ids::AnomalyEngine> make_anomaly(
    const ids::PipelineConfig& c) {
  ids::AnomalyEngineOptions opts = c.anomaly;
  opts.sensitivity = c.sensitivity;
  return std::make_unique<ids::AnomalyEngine>(opts);
}

/// Gives a sensor or host agent the product's engines.
template <class Target>
void equip(Target& target, const ids::PipelineConfig& c) {
  if (c.signature_engine) target.set_signature_engine(make_signature(c));
  if (c.anomaly_engine) target.set_anomaly_engine(make_anomaly(c));
}

/// Advances `sim` to each batch's time, hands the batch to `feed`, and
/// drains the simulator after the last one. Returns the loop's wall time.
template <class Feed>
double drive(netsim::Simulator& sim, const Capture& capture, Feed&& feed) {
  const auto t0 = Clock::now();
  for (const CapturedBatch& b : capture.batches) {
    sim.run_until(b.at);
    feed(b);
  }
  sim.run_until();
  return seconds_since(t0);
}

/// Splits [first, first + count) into maximal runs with one key and calls
/// `each(key, first, count)` per run.
template <class Key, class Each>
void for_each_run(const Capture& capture, const CapturedBatch& b, Key&& key,
                  Each&& each) {
  std::size_t i = b.first;
  const std::size_t end = b.first + b.count;
  while (i < end) {
    const auto k = key(capture.packets[i]);
    std::size_t j = i + 1;
    while (j < end && key(capture.packets[j]) == k) ++j;
    each(k, i, j - i);
    i = j;
  }
}

double replay_signature(const Capture& capture,
                        const ids::PipelineConfig& c) {
  const auto engine = make_signature(c);
  std::vector<ids::Detection> out;
  const auto t0 = Clock::now();
  for (const CapturedBatch& b : capture.batches) {
    for (std::size_t i = b.first; i < b.first + b.count; ++i) {
      engine->process(capture.packets[i], b.at, out);
      out.clear();
    }
  }
  return seconds_since(t0);
}

double replay_anomaly(const Capture& capture, const ids::PipelineConfig& c,
                      SimTime learn_until) {
  const auto engine = make_anomaly(c);
  std::vector<ids::Detection> out;
  const auto t0 = Clock::now();
  for (const CapturedBatch& b : capture.batches) {
    engine->set_mode(b.at < learn_until ? ids::AnomalyEngine::Mode::kLearning
                                        : ids::AnomalyEngine::Mode::kDetecting);
    for (std::size_t i = b.first; i < b.first + b.count; ++i) {
      engine->process(capture.packets[i], b.at, out);
      out.clear();
    }
  }
  return seconds_since(t0);
}

double replay_load_balancer(const Capture& capture,
                            const ids::PipelineConfig& c) {
  netsim::Simulator sim;
  const std::size_t n = c.sensor_count;
  // Least-loaded routing reads sensor queue depths; idle sensors answer.
  std::vector<std::unique_ptr<ids::Sensor>> idle;
  std::vector<ids::Sensor*> raw;
  for (std::size_t i = 0; i < n; ++i) {
    idle.push_back(std::make_unique<ids::Sensor>(sim, c.sensor));
    raw.push_back(idle.back().get());
  }
  ids::LoadBalancer lb(sim, c.lb, n);
  lb.set_sensors(std::move(raw));
  lb.set_forward([](std::size_t, const Packet&) {});
  return drive(sim, capture, [&](const CapturedBatch& b) {
    lb.ingest_batch(&capture.packets[b.first], b.count);
  });
}

struct SensorReplay {
  double seconds = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::vector<ids::Detection> detections;  ///< In completion order.
  std::vector<std::size_t> source;         ///< Sensor index per detection.
};

SensorReplay replay_sensors(const Capture& capture,
                            const ids::PipelineConfig& c,
                            SimTime learn_until) {
  netsim::Simulator sim;
  SensorReplay out;
  const std::size_t n = c.sensor_count;
  if (n == 0) return out;  // A purely host-based product.
  std::vector<std::unique_ptr<ids::Sensor>> sensors;
  for (std::size_t i = 0; i < n; ++i) {
    auto sensor = std::make_unique<ids::Sensor>(sim, c.sensor);
    equip(*sensor, c);
    sensor->set_on_detections(
        [&out, i](const ids::Detection* d, std::size_t k) {
          out.detections.insert(out.detections.end(), d, d + k);
          out.source.insert(out.source.end(), k, i);
        });
    sensors.push_back(std::move(sensor));
  }
  // The pipeline's placement: a load balancer pins each flow to one
  // sensor; without one, sensors split the enclave by destination.
  const auto sink = [&c, n](const Packet& p) -> std::size_t {
    return c.use_load_balancer ? p.flow_id % n : p.tuple.dst_ip.value() % n;
  };
  bool learning = true;
  out.seconds = drive(sim, capture, [&](const CapturedBatch& b) {
    if (learning && b.at >= learn_until) {
      learning = false;
      for (const auto& s : sensors) {
        if (s->anomaly_engine() != nullptr) {
          s->anomaly_engine()->set_mode(ids::AnomalyEngine::Mode::kDetecting);
        }
      }
    }
    for_each_run(capture, b, sink,
                 [&](std::size_t s, std::size_t first, std::size_t count) {
                   sensors[s]->ingest_batch(&capture.packets[first], count);
                 });
  });
  for (const auto& s : sensors) {
    out.offered += s->stats().offered;
    out.processed += s->stats().processed;
  }
  return out;
}

struct AgentReplay {
  double seconds = 0.0;
  std::uint64_t delivered = 0;
};

AgentReplay replay_agents(const Capture& capture,
                          const ids::PipelineConfig& c,
                          SimTime learn_until) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  const ids::TapFilter enclave;  // 10.0.0.0/8, the testbed's internal net
  const auto internal = [&enclave](const Packet& p) {
    return p.tuple.dst_ip.in_subnet(enclave.internal_net,
                                    enclave.internal_prefix);
  };
  // One monitored host, with its agent, per internal destination.
  std::unordered_map<std::uint32_t, netsim::Host*> hosts;
  std::vector<std::unique_ptr<ids::HostAgent>> agents;
  for (const Packet& p : capture.packets) {
    if (!internal(p) || hosts.contains(p.tuple.dst_ip.value())) continue;
    const netsim::Ipv4 addr = p.tuple.dst_ip;
    netsim::Host* host =
        net.add_host("replay" + std::to_string(hosts.size()), addr);
    hosts.emplace(addr.value(), host);
    ids::HostAgentConfig ac = c.agent;
    if (ac.report_over_network && ac.report_sink == netsim::Ipv4()) {
      ac.report_sink = agents.empty() ? addr : agents.front()->host().address();
    }
    auto agent =
        std::make_unique<ids::HostAgent>(sim, net, *host, ac, c.agent_sensor);
    equip(*agent, c);
    agent->set_report_channel(nullptr, 0, net.alloc_lane());
    // Wiring a sink makes the agent schedule its report hand-offs.
    agent->set_on_detection([](const ids::Detection&) {});
    agent->attach();
    agents.push_back(std::move(agent));
  }
  AgentReplay out;
  bool learning = true;
  const auto dst = [](const Packet& p) { return p.tuple.dst_ip.value(); };
  out.seconds = drive(sim, capture, [&](const CapturedBatch& b) {
    if (learning && b.at >= learn_until) {
      learning = false;
      for (const auto& a : agents) {
        if (a->anomaly_engine() != nullptr) {
          a->anomaly_engine()->set_mode(ids::AnomalyEngine::Mode::kDetecting);
        }
      }
    }
    for_each_run(capture, b, dst,
                 [&](std::uint32_t addr, std::size_t first, std::size_t count) {
                   const auto it = hosts.find(addr);
                   if (it == hosts.end()) return;
                   it->second->deliver_batch(&capture.packets[first], count);
                   out.delivered += count;
                 });
  });
  return out;
}

template <class T>
struct Timed {
  SimTime at;
  T value;
};

struct AnalyzerReplay {
  double seconds = 0.0;
  std::vector<Timed<ids::ThreatReport>> reports;
};

AnalyzerReplay replay_analyzers(const SensorReplay& sensed,
                                const ids::PipelineConfig& c) {
  netsim::Simulator sim;
  AnalyzerReplay out;
  const std::size_t n = std::max<std::size_t>(1, c.analyzer_count);
  std::vector<std::unique_ptr<ids::Analyzer>> analyzers;
  for (std::size_t i = 0; i < n; ++i) {
    analyzers.push_back(std::make_unique<ids::Analyzer>(sim, c.analyzer));
    analyzers.back()->set_on_report([&out, &sim](const ids::ThreatReport& r) {
      out.reports.push_back({sim.now(), r});
    });
  }
  // Detections one sensor completed at one instant reach its analyzer as
  // one batch, as the pipeline's sensor -> analyzer hand-off delivers them.
  struct Group {
    SimTime at;
    std::size_t analyzer = 0;
    std::size_t first = 0;
    std::size_t count = 0;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < sensed.detections.size(); ++i) {
    const SimTime at = sensed.detections[i].when;
    const std::size_t a = sensed.source[i] % n;
    if (!groups.empty() && groups.back().at == at &&
        groups.back().analyzer == a) {
      ++groups.back().count;
    } else {
      groups.push_back({at, a, i, 1});
    }
  }
  const auto t0 = Clock::now();
  for (const Group& g : groups) {
    sim.run_until(g.at);
    analyzers[g.analyzer]->submit_batch(&sensed.detections[g.first], g.count);
  }
  sim.run_until();
  out.seconds = seconds_since(t0);
  return out;
}

struct MonitorReplay {
  double seconds = 0.0;
  std::vector<Timed<ids::Alert>> alerts;
};

MonitorReplay replay_monitor(const AnalyzerReplay& analyzed,
                             const ids::PipelineConfig& c) {
  netsim::Simulator sim;
  MonitorReplay out;
  ids::Monitor monitor(sim, c.monitor);
  monitor.set_on_alert([&out, &sim](const ids::Alert& a) {
    out.alerts.push_back({sim.now(), a});
  });
  const auto t0 = Clock::now();
  for (const auto& [at, report] : analyzed.reports) {
    sim.run_until(at);
    // The monitor's only entry point: it has no batch twin.
    monitor.submit(report);
  }
  sim.run_until();
  out.seconds = seconds_since(t0);
  return out;
}

double replay_console(const MonitorReplay& monitored,
                      const ids::PipelineConfig& c) {
  netsim::Simulator sim;
  netsim::Switch sw(sim, "replay-switch");
  ids::ManagementConsole console(sim, c.console);
  console.attach_switch(&sw);
  const auto t0 = Clock::now();
  for (const auto& [at, alert] : monitored.alerts) {
    sim.run_until(at);
    console.on_alert(alert);
  }
  sim.run_until();
  return seconds_since(t0);
}

}  // namespace

void attach_capture(netsim::Switch& sw, const netsim::Simulator& clock,
                    const ids::PipelineConfig& config, Capture& capture) {
  sw.add_mirror_batch([&clock, filter = config.tap_filter, &capture](
                          const Packet* packets, std::size_t n) {
    ++capture.mirror_batches;
    capture.mirror_packets += n;
    if (capture.batches.size() >= kMaxCapturedBatches) return;
    const std::size_t first = capture.packets.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Packet& p = packets[i];
      if (p.tuple.dst_port == ids::kMgmtPort) continue;
      if (!filter.empty() && !filter.selects(p)) continue;
      if (p.flow_id % capture.sample_every != 0) continue;
      capture.packets.push_back(p);
    }
    if (capture.packets.size() > first) {
      capture.batches.push_back(
          {clock.now(), first, capture.packets.size() - first});
    }
  });
}

Metrics replay_layers(const Capture& capture,
                      const ids::PipelineConfig& config,
                      SimTime learn_until) {
  // The instances record telemetry as they do in a run, into a registry
  // of their own so the traced run's counters stay untouched.
  telemetry::Registry replay_telemetry;
  telemetry::ScopedRegistry scope(&replay_telemetry);
  const std::uint64_t packets = capture.packets.size();
  // Layers the product does not have are not replayed and read 0.
  const double signature_s =
      config.signature_engine ? replay_signature(capture, config) : 0.0;
  const double anomaly_s = config.anomaly_engine
                               ? replay_anomaly(capture, config, learn_until)
                               : 0.0;
  const double lb_s = config.use_load_balancer
                          ? replay_load_balancer(capture, config)
                          : 0.0;
  const SensorReplay sensed = replay_sensors(capture, config, learn_until);
  const AgentReplay agents = config.use_host_agents
                                 ? replay_agents(capture, config, learn_until)
                                 : AgentReplay{};
  const AnalyzerReplay analyzed = replay_analyzers(sensed, config);
  const MonitorReplay monitored = replay_monitor(analyzed, config);
  const double console_s =
      config.use_console ? replay_console(monitored, config) : 0.0;

  // Sensor self time: its span minus what its engines cost on the packets
  // it actually processed (dropped packets never reach an engine).
  const double engines_s =
      packets == 0 ? 0.0
                   : (signature_s + anomaly_s) *
                         static_cast<double>(sensed.processed) /
                         static_cast<double>(packets);

  const std::uint64_t detections = sensed.detections.size();
  const std::uint64_t reports = analyzed.reports.size();
  const std::uint64_t alerts = monitored.alerts.size();
  return {
      {"ids.signature.ns_per_pkt", ns_per(signature_s, packets)},
      {"ids.anomaly.ns_per_pkt", ns_per(anomaly_s, packets)},
      {"ids.lb.ns_per_pkt", ns_per(lb_s, packets)},
      {"ids.sensor.ns_per_pkt",
       ns_per(sensed.seconds - engines_s, sensed.offered)},
      {"ids.agent.ns_per_pkt", ns_per(agents.seconds, agents.delivered)},
      {"ids.analyzer.ns_per_detection", ns_per(analyzed.seconds, detections)},
      {"ids.analyzer.reports_per_detection", ratio(reports, detections)},
      {"ids.monitor.ns_per_report", ns_per(monitored.seconds, reports)},
      {"ids.monitor.alerts_per_report", ratio(alerts, reports)},
      {"ids.console.ns_per_alert", ns_per(console_s, alerts)},
      {"replay.packets", static_cast<double>(packets)},
      {"replay.detections", static_cast<double>(detections)},
  };
}

}  // namespace idseval::bench
