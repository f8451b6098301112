#include "harness/evaluate.hpp"

#include <algorithm>
#include <cmath>

#include "core/autoscore.hpp"
#include "products/scoring.hpp"
#include "util/strfmt.hpp"
#include "util/table.hpp"

namespace idseval::harness {

using core::MetricId;
using core::Score;
using netsim::SimTime;
using util::cat;
using util::fmt_si;

Evaluation evaluate_product(const TestbedConfig& env,
                            const products::ProductModel& model,
                            const EvaluationOptions& options,
                            RunContext* ctx) {
  // With a context, its registry becomes the thread-ambient recording
  // target for the whole evaluation; without one, whatever the caller
  // installed (possibly nothing) stays in effect.
  std::optional<RunContext::Scope> scope;
  if (ctx != nullptr) scope.emplace(*ctx);

  Evaluation eval{products::facts_scorecard(model), {}, {}};
  core::Scorecard& card = eval.card;
  Measurements& m = eval.measured;

  // --- Detection run: confusion, timeliness, host impact, storage --------
  {
    Testbed bed(env, &model, options.sensitivity);
    if (ctx != nullptr && ctx->score_ledger() != nullptr) {
      bed.set_score_ledger(ctx->score_ledger());
    }
    // The flat mixed chain spreads its attacks over 90% of the window. A
    // preset's stage offsets are relative to each stage's dynamic start;
    // its per-stage span keeps a four-stage chain (plus emission tails)
    // comfortably inside the measurement window.
    const std::uint64_t seed = util::hash64("evaluate") ^ env.seed;
    const auto chain =
        options.kill_chain.empty()
            ? attack::KillChain::mixed(options.attacks_per_kind,
                                       SimTime::zero(), env.measure * 0.9,
                                       seed, env.external_hosts,
                                       env.internal_hosts)
            : attack::KillChain::preset(options.kill_chain, seed,
                                        env.measure * 0.08,
                                        env.external_hosts,
                                        env.internal_hosts);
    m.detection_run = bed.run(chain);
  }
  // Snapshot stage telemetry now: the load probes below rebuild testbeds
  // and would fold their traffic into the same per-thread registry.
  if (const telemetry::Registry* reg = telemetry::current()) {
    m.detection_telemetry = telemetry::snapshot_pipeline(*reg);
  }
  const RunResult& run = m.detection_run;
  const double attack_share =
      run.transactions > 0
          ? static_cast<double>(run.attacks) /
                static_cast<double>(run.transactions)
          : 0.0;

  card.set(MetricId::kObservedFalseNegativeRatio,
           core::score_false_negative_ratio(run.fn_ratio, attack_share),
           cat("|A-D|/|T| = ", util::fmt_fixed(run.fn_ratio, 4)));
  card.set(MetricId::kObservedFalsePositiveRatio,
           core::score_false_positive_ratio(run.fp_ratio),
           cat("|D-A|/|T| = ", util::fmt_fixed(run.fp_ratio, 4)));
  card.set(MetricId::kTimeliness,
           core::score_timeliness(run.timeliness_mean_sec),
           cat(util::fmt_fixed(run.timeliness_mean_sec, 2), "s mean"));
  card.set(MetricId::kOperationalPerformanceImpact,
           core::score_host_cpu_impact(run.max_host_ids_cpu),
           cat(util::fmt_fixed(100.0 * run.max_host_ids_cpu, 1),
               "% worst host"));
  card.set(MetricId::kDataStorage,
           core::score_data_storage(run.storage_bytes_per_mb),
           cat(fmt_si(run.storage_bytes_per_mb), "B/MB"));

  // Measured firewall effectiveness can downgrade the capability score:
  // a product that claims blocking but never blocked a critical attack in
  // the lab keeps at most an average score.
  if (model.facts.firewall_block && run.firewall_blocks == 0 &&
      run.attacks > 0) {
    card.set(MetricId::kFirewallInteraction, Score(2),
             "capability present, no effective block observed");
  } else if (model.facts.firewall_block) {
    card.set(MetricId::kFirewallInteraction, Score(4),
             cat(run.firewall_blocks, " automatic blocks"));
  }

  // Measured filter effectiveness: a filter that suppressed follow-up
  // attacks with no legitimate lockouts scores high; collateral damage
  // drags it down (§2.2). Only overrides the fact score when the lab
  // actually observed blocks.
  if (run.firewall_blocks > 0) {
    const std::size_t stopped = run.post_block_attacks_suppressed;
    const std::size_t collateral = run.post_block_benign_collateral;
    int score = 2;  // blocked, but nothing measurable followed
    if (stopped > 0 && collateral == 0) {
      score = 4;
    } else if (stopped > collateral) {
      score = 3;
    } else if (collateral > 0) {
      score = 1;
    }
    card.set(MetricId::kEffectivenessOfGeneratedFilters, Score(score),
             cat(stopped, " attacks suppressed, ", collateral,
                 " benign lockouts"));
  }

  // --- Load metrics ---------------------------------------------------------
  if (options.include_load_metrics) {
    // All probe simulations accumulate into one context bound to the
    // measurements' registry, so the probe stages are reportable (and
    // traceable) separately from the detection window's snapshot above.
    RunContext probes(&m.load_probe_telemetry,
                      ctx != nullptr ? ctx->trace() : nullptr);
    if (ctx != nullptr) probes.set_probe_executor(ctx->probe_executor());
    const LoadMetrics load =
        measure_load_metrics(env, model, options.sensitivity, {}, &probes);
    m.zero_loss_pps = load.zero_loss_pps;
    // Anything sustained at zero loss was by definition processed
    // successfully; the ladder's granularity must not report less.
    m.system_throughput_pps =
        std::max(load.system_throughput_pps, m.zero_loss_pps);
    m.lethal_dose_pps = load.lethal_dose_pps;
    m.induced_latency_sec = load.induced_latency_sec;

    card.set(MetricId::kMaxThroughputZeroLoss,
             core::score_zero_loss_throughput(m.zero_loss_pps),
             cat(fmt_si(m.zero_loss_pps), " pps"));
    card.set(MetricId::kSystemThroughput,
             core::score_system_throughput(m.system_throughput_pps),
             cat(fmt_si(m.system_throughput_pps), " pps"));
    const double dose_ratio =
        m.lethal_dose_pps.has_value() && m.zero_loss_pps > 0.0
            ? *m.lethal_dose_pps / m.zero_loss_pps
            : std::numeric_limits<double>::infinity();
    card.set(MetricId::kNetworkLethalDose,
             core::score_lethal_dose_ratio(dose_ratio),
             m.lethal_dose_pps.has_value()
                 ? cat(fmt_si(*m.lethal_dose_pps), " pps")
                 : std::string("no failure observed"));
    card.set(MetricId::kInducedTrafficLatency,
             core::score_induced_latency(m.induced_latency_sec),
             cat(util::fmt_fixed(m.induced_latency_sec * 1e6, 1), " us"));
  }

  // --- Unified cost/capability score (Iannacone & Bridges) ---------------
  // Computed after the load probes so the resource term can include the
  // induced-latency measurement when available.
  {
    score::CostInputs in;
    in.transactions = run.transactions;
    in.attacks = run.attacks;
    in.missed_attacks = run.missed_attacks;
    in.false_alarms = run.false_alarms;
    in.true_detections = run.true_detections;
    in.mean_detection_latency_sec = run.timeliness_mean_sec;
    in.mean_host_ids_cpu = run.mean_host_ids_cpu;
    in.induced_latency_sec = m.induced_latency_sec;
    eval.unified = score::unified_score(in, options.cost_weights);
  }

  return eval;
}

}  // namespace idseval::harness
