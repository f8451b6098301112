#include "harness/testbed.hpp"

#include "score/ledger.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ids/scan_cache.hpp"
#include "telemetry/registry.hpp"
#include "util/strfmt.hpp"

namespace idseval::harness {

using attack::AttackKind;
using netsim::Ipv4;
using netsim::SimTime;

Testbed::Testbed(TestbedConfig config, const products::ProductModel* model,
                 double sensitivity)
    : config_(std::move(config)),
      model_(model),
      sensitivity_(sensitivity),
      engine_(netsim::ShardPlan{config_.shards}),
      sim_(engine_.hub()) {
  build();
}

Testbed::~Testbed() = default;

void Testbed::build() {
  net_ = std::make_unique<netsim::Network>(engine_);

  // Internal enclave: 10.0.0.x on a fast LAN.
  for (std::size_t i = 0; i < config_.internal_hosts; ++i) {
    const Ipv4 addr(10, 0, 0, static_cast<std::uint8_t>(i + 1));
    netsim::LinkSpec spec;
    spec.bandwidth_bps = 1e9;
    spec.latency = SimTime::from_us(50);
    spec.queue_capacity = 512;
    netsim::Host* host =
        net_->add_host(util::cat("node", i + 1), addr, spec,
                       config_.host_cpu_ops_per_sec);
    internal_.push_back(addr);
    // Record production delivery latency for induced-latency measurement.
    // Each host accumulates on its own shard's thread and clock; the
    // accumulators merge in host order at collect().
    host_delivery_.push_back(std::make_unique<HostDelivery>());
    HostDelivery* hd = host_delivery_.back().get();
    netsim::Simulator* host_sim = &net_->sim_of(addr);
    host->add_receiver_batch(
        netsim::per_packet([hd, host_sim](const netsim::Packet& p) {
          const double sec = (host_sim->now() - p.created).sec();
          hd->latency.add(sec);
          hd->hist.add(sec);
        }));
  }

  // External population: 198.51.100.x behind a WAN link.
  for (std::size_t i = 0; i < config_.external_hosts; ++i) {
    const Ipv4 addr(198, 51, 100, static_cast<std::uint8_t>(i + 1));
    netsim::LinkSpec spec;
    spec.bandwidth_bps = 2e8;
    spec.latency = SimTime::from_ms(15);
    spec.queue_capacity = 1024;
    net_->add_external_host(util::cat("ext", i + 1), addr, spec);
    external_.push_back(addr);
  }

  // One payload pool serves both traffic sources, so background and
  // attack flows intern against the same variant store.
  payload_pool_ = std::make_unique<traffic::PayloadPool>(
      util::hash64("payloads") ^ config_.seed);
  // Low-entropy industrial payload kinds (ICS control loops, CAN frames)
  // would alias the anomaly engines' entropy estimates at the default 32
  // variants per family; let their families grow instead. Profiles that
  // never emit these kinds keep the pool bit-identical to before.
  for (const traffic::ProtocolShare& share : config_.profile.mix) {
    if (share.kind == traffic::PayloadKind::kIcsControl ||
        share.kind == traffic::PayloadKind::kCanFrame) {
      payload_pool_->enable_growth(share.kind,
                                   traffic::PayloadPool::kGrowthMaxVariants);
    }
  }

  // Background traffic.
  flowgen_ = std::make_unique<traffic::FlowGenerator>(
      sim_, *net_, &ledger_, config_.profile,
      util::hash64("flowgen") ^ config_.seed, payload_pool_.get());
  flowgen_->set_internal_hosts(internal_);
  flowgen_->set_external_hosts(external_);
  flowgen_->set_rate_scale(config_.rate_scale);

  // Stream accounting for the "# simultaneous TCP streams" units.
  net_->lan_switch().add_mirror_batch(
      netsim::per_packet([this](const netsim::Packet& p) {
        if (p.tuple.proto == netsim::Protocol::kTcp) streams_.observe(p);
      }));
  // Attack machinery.
  emitter_ = std::make_unique<attack::AttackEmitter>(
      sim_, *net_, ledger_, util::hash64("attacker") ^ config_.seed,
      payload_pool_.get());
  emitter_->set_flood_train(config_.flood_train);

  // Product under test.
  if (model_ != nullptr) {
    ids::PipelineConfig pipeline_config = model_->make_config(sensitivity_);
    pipeline_config.sensor.scan_cache = config_.scan_cache;
    pipeline_config.agent_sensor.scan_cache = config_.scan_cache;
    // Payload growth mints extra variants; raise the engines' scan-memo
    // capacity by the growth bound so grown variants stay cached instead
    // of falling back to full rescans. Zero headroom (every existing
    // profile) leaves the memos at their default capacity.
    if (const std::size_t headroom = payload_pool_->growth_headroom();
        headroom > 0) {
      const std::size_t cap =
          ids::PayloadMemo<double>::kDefaultCapacity + headroom;
      pipeline_config.sensor.scan_cache_capacity = cap;
      pipeline_config.agent_sensor.scan_cache_capacity = cap;
    }
    pipeline_ = std::make_unique<ids::Pipeline>(sim_, *net_,
                                                std::move(pipeline_config));
    pipeline_->attach(model_->deploys_host_agents ? internal_
                                                  : std::vector<Ipv4>{});
  }
}

RunResult Testbed::run(const attack::KillChain& chain) {
  const SimTime warmup_end = config_.warmup;
  const SimTime measure_end = warmup_end + config_.measure;
  const SimTime drain_end = measure_end + config_.drain;

  // Housekeeping ticks: bounded, so the event queue drains after the run.
  for (SimTime t = SimTime::from_sec(1); t <= drain_end;
       t += SimTime::from_sec(1)) {
    sim_.schedule_at(t, [this] { streams_.expire(sim_.now()); });
  }

  // A stop hook may end the run at any whole second; the remaining
  // phases are then skipped.
  const bool stopped = [&] {
    // --- Phase 1: warmup. Anomaly engines learn the clean baseline. ------
    if (pipeline_ != nullptr) pipeline_->set_learning(true);
    flowgen_->start(measure_end);  // arrivals span warmup + measurement
    if (!advance(warmup_end, /*measuring=*/false, /*poll_at_end=*/true)) {
      return true;
    }

    // --- Phase 2: measurement. Counters reset; attacks injected. ---------
    // All phase-boundary actions run on this thread while every shard
    // idles at the barrier with its clock aligned to the phase end.
    if (pipeline_ != nullptr) {
      pipeline_->set_learning(false);
      pipeline_->reset_counters();
      // Evidence recording covers exactly the scored window; warmup
      // observations never pollute the score ledger.
      if (score_ledger_ != nullptr) attach_score_ledger();
    }
    net_->reset_link_stats();
    for (const auto& hd : host_delivery_) {
      hd->latency.reset();
      hd->hist = util::LogHistogram{};
    }
    for (Ipv4 addr : internal_) {
      net_->find_host(addr)->begin_accounting(sim_.now());
    }

    // Attack traffic is injected at the barrier; stage offsets are
    // relative to the measurement start.
    chain.run(*emitter_, external_, internal_, warmup_end);

    const bool measured =
        advance(measure_end, /*measuring=*/true, /*poll_at_end=*/true);
    for (Ipv4 addr : internal_) {
      net_->find_host(addr)->end_accounting(sim_.now());
    }
    if (!measured) return true;

    // --- Phase 3: drain. Let queued analysis and notifications complete. -
    return !advance(drain_end, /*measuring=*/true, /*poll_at_end=*/false);
  }();

  // Fold per-shard state back into the ambient world in shard order:
  // telemetry registries into the caller's registry, and (in collect)
  // per-shard evidence ledgers into the main score ledger.
  if (telemetry::Registry* ambient = telemetry::current()) {
    engine_.merge_registries_into(*ambient);
  }
  for (std::size_t s = 1; s < engine_.shards(); ++s) {
    // Reset either way so a later run() never double-merges (and an
    // ambient-less run discards shard telemetry exactly like it
    // discards hub telemetry).
    engine_.registry(s)->reset();
  }

  RunResult r = collect(warmup_end, measure_end);
  r.stopped_early = stopped;
  return r;
}

bool Testbed::advance(SimTime until, bool measuring, bool poll_at_end) {
  if (!stop_hook_ || pipeline_ == nullptr) {
    engine_.run_until(until);
    return true;
  }
  // Chunked advance: run_until executes every event at or before its
  // deadline, so consecutive deadlines replay exactly the events one
  // run_until(until) would, in the same order.
  const SimTime second = SimTime::from_sec(1);
  for (SimTime t = SimTime::from_ns((sim_.now().ns() / second.ns() + 1) *
                                    second.ns());
       ; t += second) {
    const SimTime step_end = std::min(t, until);
    engine_.run_until(step_end);
    if (step_end == until && !poll_at_end) return true;
    if (stop_hook_(*pipeline_, measuring)) return false;
    if (step_end == until) return true;
  }
}

void Testbed::attach_score_ledger() {
  if (engine_.shards() <= 1 || pipeline_->agents().empty()) {
    pipeline_->set_evidence_sink(score_ledger_);
    return;
  }
  // Host agents on remote shards record into per-shard ledgers (each
  // written only by its shard's thread); hub-resident detectors share
  // the main ledger. collect() merges shard ledgers in shard order,
  // which reproduces the single-ledger result exactly because the
  // evidence combine is pure selection.
  shard_score_ledgers_.clear();
  shard_score_ledgers_.resize(engine_.shards());
  for (const auto& sensor : pipeline_->sensors()) {
    sensor->set_evidence_sink(score_ledger_);
  }
  for (const auto& agent : pipeline_->agents()) {
    const std::size_t shard = agent->shard();
    if (shard == 0) {
      agent->set_evidence_sink(score_ledger_);
      continue;
    }
    if (!shard_score_ledgers_[shard]) {
      // Construct under the shard's registry so the ledger's flow-table
      // telemetry binds shard-locally, not into the hub's counters.
      telemetry::ScopedRegistry scope(engine_.registry(shard));
      shard_score_ledgers_[shard] = std::make_unique<score::ScoreLedger>();
    }
    agent->set_evidence_sink(shard_score_ledgers_[shard].get());
  }
}

RunResult Testbed::run_clean() { return run(attack::KillChain{}); }

RunResult Testbed::collect(SimTime measure_start, SimTime measure_end) {
  RunResult r;
  r.product = model_ != nullptr ? model_->name : "baseline";
  r.sensitivity = sensitivity_;
  const double window_sec = (measure_end - measure_start).sec();
  if (score_ledger_ != nullptr) {
    for (const auto& shard_ledger : shard_score_ledgers_) {
      if (shard_ledger) score_ledger_->merge_from(*shard_ledger);
    }
    shard_score_ledgers_.clear();
    score_ledger_->finalize(ledger_, measure_start, measure_end);
  }

  // --- Confusion over transactions that began in the window --------------
  std::unordered_set<std::uint64_t> alerted;
  if (pipeline_ != nullptr) {
    for (const auto flow : pipeline_->monitor().alerted_flows()) {
      if (flow != 0) alerted.insert(flow);
    }
  }
  // Firewall-suppressed attacks: launched after their source was blocked.
  std::vector<ids::BlockEvent> blocks;
  if (pipeline_ != nullptr && pipeline_->console() != nullptr) {
    blocks = pipeline_->console()->block_events();
  }
  const auto was_prevented = [&blocks](const traffic::Transaction& t) {
    for (const ids::BlockEvent& b : blocks) {
      if (t.tuple.src_ip == b.source && t.start >= b.effective_at) {
        return true;
      }
    }
    return false;
  };
  // Per-flow earliest alert time, for the breakdown's mean alert latency.
  std::unordered_map<std::uint64_t, SimTime> first_alert;
  if (pipeline_ != nullptr) {
    for (const ids::Alert& alert : pipeline_->monitor().log()) {
      if (alert.flow_id == 0) continue;
      auto [it, inserted] =
          first_alert.try_emplace(alert.flow_id, alert.raised);
      if (!inserted && alert.raised < it->second) it->second = alert.raised;
    }
  }
  std::vector<score::BreakdownInput> breakdown_inputs;
  for (const traffic::Transaction* t : ledger_.all()) {
    if (t->start < measure_start || t->start >= measure_end) continue;
    ++r.transactions;
    const bool is_attack = t->is_attack;
    const bool was_alerted = alerted.contains(t->flow_id);
    if (is_attack) {
      ++r.attacks;
      const bool prevented = !was_alerted && was_prevented(*t);
      auto& outcome =
          r.per_kind[static_cast<AttackKind>(t->attack_kind)];
      ++outcome.launched;
      if (was_alerted) {
        ++r.true_detections;
        ++outcome.detected;
      } else if (prevented) {
        ++r.prevented_attacks;
        ++outcome.prevented;
      } else {
        ++r.missed_attacks;
      }
      score::BreakdownInput bi;
      bi.kind = t->attack_kind;
      bi.stage = t->attack_stage;
      bi.detected = was_alerted;
      bi.prevented = prevented;
      if (was_alerted) {
        if (auto it = first_alert.find(t->flow_id);
            it != first_alert.end()) {
          bi.has_latency = true;
          bi.latency_sec = (it->second - t->start).sec();
        }
      }
      breakdown_inputs.push_back(bi);
    } else if (was_alerted) {
      ++r.false_alarms;
    }
  }
  r.breakdown = score::compute_breakdown(breakdown_inputs);
  r.detected = r.true_detections + r.false_alarms;
  if (r.transactions > 0) {
    r.fp_ratio = static_cast<double>(r.false_alarms) /
                 static_cast<double>(r.transactions);
    r.fn_ratio = static_cast<double>(r.missed_attacks) /
                 static_cast<double>(r.transactions);
  }

  // --- Timeliness ---------------------------------------------------------
  if (pipeline_ != nullptr) {
    util::RunningStats timeliness;
    for (const ids::Alert& alert : pipeline_->monitor().log()) {
      if (alert.flow_id == 0) continue;
      const traffic::Transaction* t = ledger_.find(alert.flow_id);
      if (t == nullptr || !t->is_attack) continue;
      timeliness.add((alert.raised - t->start).sec());
    }
    r.timeliness_mean_sec = timeliness.mean();
    r.timeliness_max_sec = timeliness.max();
  }

  // --- Load / loss ---------------------------------------------------------
  const netsim::LinkStats up = net_->aggregate_uplink_stats();
  r.offered_pps =
      static_cast<double>(up.offered_packets) / std::max(1e-9, window_sec);
  if (pipeline_ != nullptr) {
    const ids::PipelineTotals totals = pipeline_->totals();
    r.tapped_pps = static_cast<double>(totals.packets_tapped) /
                   std::max(1e-9, window_sec);
    // Primary analysis path: the network-sensor fleet when one exists,
    // otherwise the host-agent fleet (hybrids would double-count).
    const std::uint64_t primary_processed =
        totals.network_processed > 0 ? totals.network_processed
                                     : totals.agent_processed;
    r.processed_pps = static_cast<double>(primary_processed) /
                      std::max(1e-9, window_sec);
    r.ids_loss_ratio = totals.ids_loss_ratio();
    r.sensor_failures = totals.sensor_failures + totals.sensors_down;
    r.alerts_raised = totals.alerts;

    // Storage per MB of tapped traffic.
    std::uint64_t stored = 0;
    for (const auto& a : pipeline_->analyzers()) {
      stored += a->stats().bytes_stored;
    }
    // Sensors do not track bytes; the switch saw what the uplinks carried.
    const std::uint64_t tapped_bytes = up.delivered_bytes;
    if (tapped_bytes > 0) {
      r.storage_bytes_per_mb = static_cast<double>(stored) /
                               (static_cast<double>(tapped_bytes) / 1e6);
    }

    if (pipeline_->console() != nullptr) {
      r.firewall_blocks = pipeline_->console()->stats().blocks_issued;
      r.snmp_traps = pipeline_->console()->stats().snmp_traps;
      // Judge each generated filter: what did the block actually stop?
      for (const ids::BlockEvent& block :
           pipeline_->console()->block_events()) {
        for (const traffic::Transaction* t : ledger_.all()) {
          if (t->tuple.src_ip != block.source) continue;
          if (t->start < block.effective_at) continue;
          if (t->is_attack) {
            ++r.post_block_attacks_suppressed;
          } else {
            ++r.post_block_benign_collateral;
          }
        }
      }
    }
  }

  r.peak_concurrent_streams = streams_.peak_streams();
  r.total_streams = streams_.total_streams_seen();

  // --- Production latency --------------------------------------------------
  // Merge the per-host accumulators in host order — deterministic at
  // every shard count, since each host's own sample sequence is.
  util::RunningStats delivery_latency;
  util::LogHistogram delivery_hist;
  for (const auto& hd : host_delivery_) {
    delivery_latency.merge(hd->latency);
    delivery_hist.merge(hd->hist);
  }
  r.mean_delivery_latency_sec = delivery_latency.mean();
  // Interpolated 99th percentile from the log2 histogram. The previous
  // mean + 3σ proxy assumed normality, which queueing delays with a heavy
  // right tail do not satisfy — it overstated p99 badly under load.
  r.p99_delivery_latency_sec = delivery_hist.quantile(0.99);

  // --- Host impact -----------------------------------------------------------
  util::RunningStats host_cpu;
  for (Ipv4 addr : internal_) {
    host_cpu.add(net_->find_host(addr)->ids_cpu_fraction());
  }
  r.max_host_ids_cpu = host_cpu.max();
  r.mean_host_ids_cpu = host_cpu.mean();

  return r;
}

}  // namespace idseval::harness
