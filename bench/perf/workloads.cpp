#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>

#include "attack/killchain.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "digest.hpp"
#include "harness/evaluate.hpp"
#include "harness/measure.hpp"
#include "harness/run_context.hpp"
#include "harness/testbed.hpp"
#include "products/catalog.hpp"
#include "results/html.hpp"
#include "telemetry/registry.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::bench {
namespace {

using Clock = std::chrono::steady_clock;
using netsim::SimTime;
namespace names = telemetry::names;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t counter(const telemetry::Registry& registry,
                      std::string_view name) {
  const telemetry::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double share(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double counter_share(const telemetry::Registry& registry,
                     std::string_view num, std::string_view den) {
  return share(static_cast<double>(counter(registry, num)),
               static_cast<double>(counter(registry, den)));
}

double hit_ratio(const telemetry::Registry& registry, std::string_view hits,
                 std::string_view misses) {
  const auto h = static_cast<double>(counter(registry, hits));
  return share(h, h + static_cast<double>(counter(registry, misses)));
}

// The evaluation kill chain, seeded the way evaluate_product seeds its
// detection run, so a traced testbed replays what the product path runs.
// The scorecard and campaign traces check that it still does.
attack::KillChain intrusion_chain(const harness::TestbedConfig& cfg,
                                  std::string_view salt) {
  return attack::KillChain::preset("intrusion", util::hash64(salt) ^ cfg.seed,
                                   cfg.measure * 0.08, cfg.external_hosts,
                                   cfg.internal_hosts);
}

/// A product in an environment under a kill chain: what one Testbed run
/// needs.
struct BedSpec {
  harness::TestbedConfig cfg;
  const products::ProductModel* model = nullptr;
  double sensitivity = 0.5;
  attack::KillChain chain;
};

struct BedRun {
  harness::RunResult result;
  double seconds = 0.0;  ///< Testbed::run only.
  std::uint64_t packets = 0;
};

/// Builds and runs one testbed under its own telemetry registry. A null
/// `model` is the no-IDS control.
BedRun run_bed(const BedSpec& spec, const products::ProductModel* model) {
  harness::RunContext ctx;
  harness::RunContext::Scope scope(ctx);
  harness::Testbed bed(spec.cfg, model, spec.sensitivity);
  BedRun out;
  const auto t0 = Clock::now();
  out.result = bed.run(spec.chain);
  out.seconds = seconds_since(t0);
  out.packets = counter(ctx.registry(), names::kSwitchForwarded);
  return out;
}

double time_construction(const BedSpec& spec) {
  harness::RunContext ctx;
  harness::RunContext::Scope scope(ctx);
  const auto t0 = Clock::now();
  harness::Testbed bed(spec.cfg, spec.model, spec.sensitivity);
  return seconds_since(t0);
}

std::string check_run(const harness::RunResult& r) {
  if (r.transactions == 0) return "no transactions in the window";
  if (r.attacks == 0) return "no attack launched";
  if (r.true_detections + r.missed_attacks + r.prevented_attacks !=
      r.attacks) {
    return "attack outcomes do not add up to the attacks launched";
  }
  if (r.tapped_pps <= 0.0) return "the IDS saw no traffic";
  return "";
}

std::uint64_t digest_run(const harness::RunResult& r) {
  StreamHash sh;
  hash_result(sh, r);
  return sh.h;
}

/// Metric names only the scorecard or campaign traced runs produce; zero
/// on the other workloads.
constexpr std::string_view kWorkloadSpecific[] = {
    "harness.probes",          "harness.probe_setup_share",
    "score.sweep_share",       "campaign.worker_busy_share",
    "results.write_share",
};

/// Throws unless the traced testbed reproduced the run the timed workload
/// made through the product API.
using SameAsProductRun = std::function<void(const harness::RunResult&)>;

/// The traced run of one testbed: an untraced run, a no-IDS control run
/// and a run with the capture mirror attached, then the layer replays.
Metrics trace_bed(const BedSpec& spec, const SameAsProductRun& check) {
  const BedRun full = run_bed(spec, spec.model);
  check(full.result);
  const BedRun control = run_bed(spec, nullptr);

  const ids::PipelineConfig config =
      spec.model->make_config(spec.sensitivity);
  Capture capture;
  capture.sample_every = std::max<std::uint64_t>(
      1, (full.packets + kMaxCapturedBatches - 1) / kMaxCapturedBatches);
  harness::RunContext ctx;
  harness::RunContext::Scope scope(ctx);
  harness::Testbed bed(spec.cfg, spec.model, spec.sensitivity);
  attach_capture(bed.net().lan_switch(), bed.sim(), config, capture);
  const auto t0 = Clock::now();
  const harness::RunResult traced = bed.run(spec.chain);
  const double traced_s = seconds_since(t0);
  if (digest_run(traced) != digest_run(full.result)) {
    throw std::runtime_error("the capture mirror changed the run's results");
  }

  const telemetry::Registry& reg = ctx.registry();
  const netsim::ShardedSimulator& engine = bed.engine();
  const double mirrored = static_cast<double>(capture.mirror_packets);
  const double traced_packets =
      static_cast<double>(counter(reg, names::kSwitchForwarded));

  Metrics m = replay_layers(capture, config, spec.cfg.warmup);
  m["netsim.ns_per_pkt"] =
      share(control.seconds * 1e9, static_cast<double>(control.packets));
  m["netsim.events_per_pkt"] =
      share(static_cast<double>(engine.executed()), mirrored);
  m["netsim.batch_mean"] =
      share(mirrored, static_cast<double>(capture.mirror_batches));
  m["netsim.callback_fallbacks"] =
      static_cast<double>(engine.alloc_fallbacks());
  m["netsim.windows"] = static_cast<double>(engine.stats().windows);
  m["netsim.cross_shard_msgs"] =
      static_cast<double>(engine.stats().total_messages());
  double stall_s = 0.0;
  for (const auto& shard : engine.stats().shard) {
    stall_s += shard.barrier_stall_sec;
  }
  m["netsim.barrier_stall_s"] = stall_s;
  m["ids.ns_per_pkt"] = share((full.seconds - control.seconds) * 1e9, mirrored);
  m["ids.payload_memo.hit_ratio"] =
      hit_ratio(reg, names::kScanCacheHits, names::kScanCacheMisses);
  m["ids.lb.drop_ratio"] =
      counter_share(reg, names::kLbDropped, names::kLbOffered);
  m["ids.sensor.drop_ratio"] =
      counter_share(reg, names::kSensorDropped, names::kSensorOffered);
  m["traffic.flows"] = static_cast<double>(bed.ledger().size());
  m["traffic.pool_hit_ratio"] =
      hit_ratio(reg, names::kPayloadPoolHits, names::kPayloadPoolMisses);
  m["util.flowtable.probes_per_lookup"] =
      counter_share(reg, names::kFlowTableProbes, names::kFlowTableLookups);
  m["bench.capture_overhead"] =
      share(share(static_cast<double>(full.packets), full.seconds),
            share(traced_packets, traced_s));
  for (const std::string_view name : kWorkloadSpecific) {
    m[std::string(name)] = 0.0;
  }
  return m;
}

/// Runs `fn` as one op, recording a throw as the op's error.
template <class Fn>
Op guarded(Fn&& fn) {
  Op op;
  try {
    fn(op);
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  return op;
}

// --- lb-sharded / megaflow-hybrid --------------------------------------------

class TestbedWorkload final : public Workload {
 public:
  explicit TestbedWorkload(BedSpec spec) : spec_(std::move(spec)) {}

  double setup() override { return time_construction(spec_); }

  Iteration iterate() override {
    Iteration it;
    it.ops.push_back(guarded([&](Op& op) {
      const BedRun run = run_bed(spec_, spec_.model);
      op.seconds = run.seconds;
      op.digest = digest_run(run.result);
      op.error = check_run(run.result);
      it.packets = run.packets;
    }));
    it.seconds = it.ops.front().seconds;
    it.digest = it.ops.front().digest;
    return it;
  }

  Metrics trace() override {
    return trace_bed(spec_, [](const harness::RunResult&) {});
  }

 private:
  BedSpec spec_;
};

BedSpec lb_sharded(std::uint64_t seed) {
  BedSpec spec;
  spec.cfg.profile = traffic::rt_cluster_profile();
  spec.cfg.rate_scale = 24.0;
  spec.cfg.flood_train = 8;
  spec.cfg.shards = 4;
  spec.cfg.seed = seed;
  spec.cfg.warmup = SimTime::from_sec(5);
  spec.cfg.measure = SimTime::from_sec(20);
  spec.cfg.drain = SimTime::from_sec(2);
  spec.model = &products::product(products::ProductId::kFlowHunt);
  spec.chain = intrusion_chain(spec.cfg, "bench");
  return spec;
}

BedSpec megaflow_hybrid(std::uint64_t seed) {
  BedSpec spec;
  spec.cfg.profile = traffic::megaflow_profile();
  spec.cfg.rate_scale = 40.0;
  spec.cfg.internal_hosts = 200;
  spec.cfg.external_hosts = 50;
  spec.cfg.seed = seed;
  spec.cfg.warmup = SimTime::from_sec(5);
  spec.cfg.measure = SimTime::from_sec(20);
  spec.cfg.drain = SimTime::from_sec(2);
  spec.model = &products::product(products::ProductId::kGuardSecure);
  spec.chain = intrusion_chain(spec.cfg, "bench");
  return spec;
}

// --- scorecard ------------------------------------------------------------------

/// Scorecards in a run rotate over this many seeds drawn from --seed.
/// How long one scorecard takes depends on where its load searches land,
/// which moves with the seed by about 12%; a run's median over several
/// environments moves less from one --seed to the next.
constexpr std::size_t kScorecardSeeds = 3;

class ScorecardWorkload final : public Workload {
 public:
  explicit ScorecardWorkload(std::uint64_t seed) {
    for (std::size_t k = 0; k < kScorecardSeeds; ++k) {
      BedSpec bed;
      bed.cfg.profile = traffic::rt_cluster_profile();
      bed.cfg.seed =
          k == 0 ? seed : util::hash64(util::cat("scorecard", k)) ^ seed;
      bed.model = &products::product(products::ProductId::kSentryNid);
      bed.chain = intrusion_chain(bed.cfg, "evaluate");
      beds_.push_back(std::move(bed));
    }
    options_.kill_chain = "intrusion";
    for (int i = 0; i <= 10; ++i) grid_.push_back(0.1 * i);
  }

  double setup() override { return time_construction(beds_.front()); }

  Iteration iterate() override { return score(passes_++ % beds_.size()); }

  Metrics trace() override {
    const Iteration it = score(0);
    if (!it.ops.front().error.empty()) {
      throw std::runtime_error(it.ops.front().error);
    }
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) setups.push_back(setup());
    std::sort(setups.begin(), setups.end());
    Metrics m = trace_bed(beds_.front(), [this](const harness::RunResult& r) {
      if (digest_run(r) != detection_digest_) {
        throw std::runtime_error(
            "the traced testbed differs from evaluate_product's detection "
            "run");
      }
    });
    m["harness.probes"] = static_cast<double>(probes_);
    m["harness.probe_setup_share"] =
        static_cast<double>(probes_) * setups[2] / it.seconds;
    m["score.sweep_share"] = sweep_seconds_ / it.seconds;
    return m;
  }

 private:
  /// One scorecard of the k-th seed's environment.
  Iteration score(std::size_t k) {
    const BedSpec& bed = beds_[k];
    Iteration it;
    it.key = k;
    it.ops.push_back(guarded([&](Op& op) {
      harness::RunContext ctx;
      telemetry::Registry sweep_registry;
      const auto t0 = Clock::now();
      const harness::Evaluation eval =
          harness::evaluate_product(bed.cfg, *bed.model, options_, &ctx);
      const auto t1 = Clock::now();
      harness::SinglePassSweep sweep;
      {
        telemetry::ScopedRegistry scope(&sweep_registry);
        sweep = harness::single_pass_sensitivity_sweep(
            bed.cfg, *bed.model, grid_, options_.attacks_per_kind);
      }
      op.seconds = seconds_since(t0);
      sweep_seconds_ = seconds_since(t1);
      const telemetry::Registry& probes = eval.measured.load_probe_telemetry;
      probes_ = counter(probes, names::kHarnessProbes);
      it.packets = counter(ctx.registry(), names::kSwitchForwarded) +
                   counter(probes, names::kSwitchForwarded) +
                   counter(sweep_registry, names::kSwitchForwarded);
      op.digest = digest(eval, sweep);
      op.error = check(eval, sweep);
      detection_digest_ = digest_run(eval.measured.detection_run);
    }));
    it.seconds = it.ops.front().seconds;
    it.digest = it.ops.front().digest;
    return it;
  }

 private:
  std::uint64_t digest(const harness::Evaluation& eval,
                       const harness::SinglePassSweep& sweep) const {
    StreamHash sh;
    for (const auto& [id, entry] : eval.card.entries()) {
      sh.u64(static_cast<std::uint64_t>(id));
      sh.u64(static_cast<std::uint64_t>(entry.score.value()));
      sh.str(entry.note);
    }
    const harness::Measurements& m = eval.measured;
    hash_result(sh, m.detection_run);
    sh.f64(m.zero_loss_pps);
    sh.f64(m.system_throughput_pps);
    sh.u64(m.lethal_dose_pps.has_value() ? 1 : 0);
    sh.f64(m.lethal_dose_pps.value_or(0.0));
    sh.f64(m.induced_latency_sec);
    sh.f64(eval.unified.total_cost);
    sh.f64(eval.unified.capability);
    for (const harness::ErrorRatePoint& p : sweep.points) {
      sh.f64(p.sensitivity);
      sh.f64(p.fp_ratio);
      sh.f64(p.fn_ratio);
      sh.f64(p.fp_percent_of_benign);
      sh.f64(p.fn_percent_of_attacks);
    }
    sh.u64(sweep.evidence_observations);
    return sh.h;
  }

  std::string check(const harness::Evaluation& eval,
                    const harness::SinglePassSweep& sweep) const {
    using core::MetricId;
    for (const MetricId id :
         {MetricId::kMaxThroughputZeroLoss, MetricId::kSystemThroughput,
          MetricId::kNetworkLethalDose, MetricId::kInducedTrafficLatency}) {
      if (!eval.card.has(id)) return "a load metric is missing";
    }
    if (eval.measured.zero_loss_pps <= 0.0) return "zero-loss rate is 0";
    if (sweep.points.size() != grid_.size()) return "sweep lost points";
    for (const harness::ErrorRatePoint& p : sweep.points) {
      if (p.fp_percent_of_benign < 0.0 || p.fp_percent_of_benign > 100.0 ||
          p.fn_percent_of_attacks < 0.0 || p.fn_percent_of_attacks > 100.0) {
        return "sweep error rate outside [0, 100]%";
      }
    }
    return check_run(eval.measured.detection_run);
  }

  std::vector<BedSpec> beds_;  ///< Each seed's detection-run testbed.
  std::size_t passes_ = 0;
  harness::EvaluationOptions options_;
  std::vector<double> grid_;
  std::uint64_t probes_ = 0;
  double sweep_seconds_ = 0.0;
  std::uint64_t detection_digest_ = 0;  ///< Of the last detection run.
};

// --- campaign-grid --------------------------------------------------------------

constexpr std::size_t kCampaignJobs = 4;

/// The testbed run_cell builds for one cell.
harness::TestbedConfig cell_env(const campaign::CampaignSpec& spec,
                                const campaign::CampaignCell& cell) {
  harness::TestbedConfig env;
  env.profile = traffic::profile_by_name(cell.profile);
  env.internal_hosts = spec.internal_hosts;
  env.external_hosts = spec.external_hosts;
  env.warmup = SimTime::from_sec(spec.warmup_sec);
  env.measure = SimTime::from_sec(spec.measure_sec);
  env.shards = spec.shards;
  env.seed = cell.seed;
  return env;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, const std::string& scratch)
      : text_(util::cat("name = idseval-bench\n"
                        "products = all\n"
                        "profiles = rt_cluster, ics, ecommerce\n"
                        "sensitivities = 0.3, 0.7\n"
                        "replicates = 9\n"
                        "seed = ",
                        seed,
                        "\n"
                        "kill_chain = intrusion\n"
                        "warmup_sec = 5\n"
                        "measure_sec = 30\n")),
        store_path_(util::cat(scratch, "/campaign-", ::getpid(), ".jsonl")) {
    const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text_);
    const campaign::CampaignCell first = campaign::expand_cells(spec).front();
    first_cell_.cfg = cell_env(spec, first);
    first_cell_.model = &products::product(first.product);
    first_cell_.sensitivity = first.sensitivity;
    first_cell_.chain = intrusion_chain(first_cell_.cfg, "evaluate");
  }
  ~CampaignWorkload() override { remove_store(); }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;

  double setup() override {
    // A new campaign opens a new store; truncating the last pass's rows
    // would time the file system's page drop instead.
    remove_store();
    const auto t0 = Clock::now();
    const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text_);
    campaign::ResultStore store(store_path_, spec, /*fresh=*/true);
    const campaign::CampaignCell first = campaign::expand_cells(spec).front();
    harness::RunContext ctx;
    harness::RunContext::Scope scope(ctx);
    harness::Testbed bed(cell_env(spec, first),
                         &products::product(first.product), first.sensitivity);
    return seconds_since(t0);
  }

  Iteration iterate() override {
    Iteration it;
    const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text_);
    campaign::ResultStore store(store_path_, spec, /*fresh=*/true);
    telemetry::Registry telemetry;
    campaign::RunOptions options;
    options.jobs = kCampaignJobs;
    options.telemetry = &telemetry;

    const auto t0 = Clock::now();
    const campaign::RunStats stats =
        campaign::run_campaign(spec, store, options);
    const auto t1 = Clock::now();
    const campaign::CampaignAggregate agg =
        campaign::aggregate(spec, store.results());
    const std::string csv = campaign::to_csv(spec, agg);
    const std::string stages = campaign::stages_to_csv(spec, store.results());
    const std::string killchain = campaign::killchain_to_csv(spec, agg);
    const std::string html = results::html_document(
        "Campaign '" + spec.name + "'",
        {campaign::summary_table_doc(spec, agg),
         campaign::eer_table_doc(spec, agg),
         campaign::killchain_table_doc(spec, agg)});
    it.seconds = seconds_since(t0);
    write_seconds_ = seconds_since(t1);

    StreamHash all;
    double busy_s = 0.0;
    for (const auto& [index, r] : store.results()) {
      if (index == 0) cell0_ = r;
      const std::string row = campaign::serialize_cell(r);
      Op op;
      op.seconds = r.wall_sec;
      StreamHash sh;
      sh.str(row);
      op.digest = sh.h;
      op.error = r.ok ? "" : r.error;
      all.str(row);
      busy_s += r.wall_sec;
      it.ops.push_back(std::move(op));
    }
    busy_share_ = share(busy_s, static_cast<double>(kCampaignJobs) *
                                    std::chrono::duration<double>(t1 - t0)
                                        .count());
    for (const std::string* artifact : {&csv, &stages, &killchain, &html}) {
      all.str(*artifact);
    }
    it.digest = all.h;
    it.packets = counter(telemetry, names::kSwitchForwarded);

    // A missing row or an empty artifact fails the pass's first op.
    std::string error;
    if (stats.executed != spec.cell_count() ||
        it.ops.size() != spec.cell_count()) {
      error = "campaign did not store every cell";
    } else if (csv.empty() || stages.empty() || killchain.empty() ||
               html.empty()) {
      error = "campaign writer produced an empty artifact";
    }
    if (!error.empty()) {
      if (it.ops.empty()) it.ops.emplace_back();
      it.ops.front().error = error;
    }
    return it;
  }

  Metrics trace() override {
    const Iteration it = iterate();
    for (const Op& op : it.ops) {
      if (!op.error.empty()) throw std::runtime_error(op.error);
    }
    Metrics m = trace_bed(first_cell_, [this](const harness::RunResult& r) {
      // The detection-run fields run_cell stores in the row.
      if (r.fp_ratio != cell0_.fp_ratio || r.fn_ratio != cell0_.fn_ratio ||
          r.timeliness_mean_sec != cell0_.timeliness_sec ||
          r.offered_pps != cell0_.offered_pps ||
          r.processed_pps != cell0_.processed_pps) {
        throw std::runtime_error(
            "the traced testbed differs from the campaign's cell 0");
      }
    });
    m["campaign.worker_busy_share"] = busy_share_;
    m["results.write_share"] = write_seconds_ / it.seconds;
    return m;
  }

 private:
  void remove_store() const {
    std::error_code ignored;
    std::filesystem::remove(store_path_, ignored);
  }

  std::string text_;
  std::string store_path_;
  BedSpec first_cell_;  ///< The testbed of cell 0, for the traced run.
  campaign::CellResult cell0_;  ///< Cell 0's row from the last pass.
  double busy_share_ = 0.0;
  double write_seconds_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "scorecard", "lb-sharded", "megaflow-hybrid", "campaign-grid"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  if (name == "scorecard") return std::make_unique<ScorecardWorkload>(seed);
  if (name == "lb-sharded") {
    return std::make_unique<TestbedWorkload>(lb_sharded(seed));
  }
  if (name == "megaflow-hybrid") {
    return std::make_unique<TestbedWorkload>(megaflow_hybrid(seed));
  }
  if (name == "campaign-grid") {
    return std::make_unique<CampaignWorkload>(seed, scratch);
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace idseval::bench
