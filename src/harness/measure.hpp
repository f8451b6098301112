// Measurement procedures for the load-dependent Table 3 metrics. Each
// procedure runs (several) testbed simulations with controlled knobs and
// extracts one scalar the scorecard's anchor-based autoscorer consumes.
#pragma once

#include <optional>
#include <vector>

#include "harness/run_context.hpp"
#include "harness/testbed.hpp"
#include "products/catalog.hpp"
#include "score/ledger.hpp"
#include "score/roc.hpp"

namespace idseval::harness {

/// One point of a load sweep.
struct LoadPoint {
  double rate_scale = 1.0;
  double offered_pps = 0.0;
  double tapped_pps = 0.0;
  double processed_pps = 0.0;
  double loss_ratio = 0.0;
  std::uint64_t failures = 0;
  /// Production-path delivery latency (read by the induced-latency
  /// probes).
  double mean_delivery_latency_sec = 0.0;
};

/// The ranges evaluate_product searches. The per-function defaults below
/// are the smaller ranges the standalone benches were tuned on
/// (bench_table2_architectural relies on overload_scale = 48).
inline constexpr double kEvaluateZeroLossMaxScale = 96.0;
inline constexpr double kEvaluateOverloadScale = 96.0;
inline constexpr double kEvaluateLethalMaxScale = 128.0;

/// Flood-train length used by the lethal-dose probe scenarios: bursts of
/// this many same-tick SYN packets per attack train, exercising the
/// coalesced same-tick fan-out path under the exact load that is meant
/// to kill sensors.
inline constexpr std::uint32_t kLethalDoseFloodTrain = 8;

/// What one load probe simulates. Clean and flood probes run 4/6/2 sim-s
/// windows at the given rate scale; latency probes run the base scale
/// over 5/20/2 sim-s.
enum class ProbeKind : std::uint8_t {
  kClean,            ///< Attack-free background load.
  kFlood,            ///< Background plus a SYN flood in same-tick trains.
  kLatency,          ///< Induced-latency window with the product attached.
  kLatencyBaseline,  ///< The same window with no IDS attached.
};

/// Runs one probe to completion on the calling thread, recording its
/// telemetry (and one `harness.probes` bump) into the ambient registry.
/// Every search below is built from these probes; the tests replay the
/// searches sequentially with it.
LoadPoint run_load_probe(const TestbedConfig& base,
                         const products::ProductModel& model,
                         double sensitivity, ProbeKind kind,
                         double rate_scale);

// How the load measurements run. Probes are independent simulations, so
// they run on one process-wide ProbeExecutor (or the one the context
// names, RunContext::set_probe_executor) while the searches that choose
// them stay on the calling thread:
//  * results are exactly those of the sequential searches — every
//    decision reads the probe the sequential search would read next;
//    probes further down its decision tree only start early;
//  * a zero-loss probe whose verdict can no longer change (a sensor
//    failure counted in the window, or a sensor down past the run's
//    end) stops there, unless another measure reads the same probe in
//    full;
//  * measure_load_metrics shares identical probes between its measures
//    (at evaluate's ranges the zero-loss search and the throughput
//    ladder can both reach 32, 48 and 96).
// With a `probes` context, each used probe's telemetry is merged into
// probes->registry() in the sequential searches' order (zero loss,
// ladder, lethal dose, induced latency), so accumulated telemetry does
// not depend on worker count or timing; with nullptr it goes to the
// calling thread's ambient registry, if any. Besides `harness.probes`
// (one per simulation used), the merge counts
// `harness.probe_memo_hits`, `harness.probe_early_exits` and
// `harness.probe_speculative_discards`; discarded probes merge nothing
// else.

/// Runs the profile at each rate scale (attack-free), short windows.
std::vector<LoadPoint> load_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, const std::vector<double>& rate_scales,
    RunContext* probes = nullptr);

/// Maximal Throughput with Zero Loss: the *network traffic level*
/// (offered packets/sec — Table 3's "observed level of traffic") of a
/// probe whose IDS-path loss stays under `loss_epsilon` with no sensor
/// failure. Doubles the rate scale from 1 until a probe fails (probing
/// max_scale itself when the doubling stops short of it), then bisects
/// `iterations` times and reports the last passing probe.
double measure_zero_loss_pps(const TestbedConfig& base,
                             const products::ProductModel& model,
                             double sensitivity, double max_scale = 64.0,
                             double loss_epsilon = 1e-4, int iterations = 7,
                             RunContext* probes = nullptr);

/// System Throughput (packets/sec the IDS processes successfully at
/// saturation): the best processed rate over a 7-rung ladder of offers
/// up to `overload_scale` (1/8, 1/4, 1/3, 0.4, 1/2, 3/4 and 1 of it) —
/// a single overload probe would report the post-collapse rate of a
/// product whose sensors die past their lethal dose.
double measure_system_throughput_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double overload_scale = 48.0,
    RunContext* probes = nullptr);

/// Network Lethal Dose: lowest offered pps that trips a sensor failure,
/// searched over geometrically increasing load; nullopt if no failure up
/// to max_scale (scores the "never failed" anchor). Probes run a
/// SYN-flood scenario with same-tick flood trains (kLethalDoseFloodTrain)
/// on top of the scaled background load, so the dose search stresses the
/// batched delivery path the way a real flood does.
std::optional<double> measure_lethal_dose_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double max_scale = 96.0,
    RunContext* probes = nullptr);

/// Induced Traffic Latency (seconds added to production delivery):
/// latency with the product attached minus the no-IDS baseline.
double measure_induced_latency_sec(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, RunContext* probes = nullptr);

/// The four searches' parameters; the defaults are evaluate_product's.
struct LoadSearchOptions {
  double zero_loss_max_scale = kEvaluateZeroLossMaxScale;
  double loss_epsilon = 1e-4;
  int iterations = 7;
  double overload_scale = kEvaluateOverloadScale;
  double lethal_max_scale = kEvaluateLethalMaxScale;
};

/// The four Table 3 load measurements of one product.
struct LoadMetrics {
  double zero_loss_pps = 0.0;
  double system_throughput_pps = 0.0;
  std::optional<double> lethal_dose_pps;
  double induced_latency_sec = 0.0;
};

/// Runs the four load measurements at once, sharing identical probes.
/// Each value equals what the corresponding measure_* function returns
/// for the same parameters.
LoadMetrics measure_load_metrics(const TestbedConfig& base,
                                 const products::ProductModel& model,
                                 double sensitivity,
                                 const LoadSearchOptions& options = {},
                                 RunContext* probes = nullptr);

/// One sensitivity point of the Figure 4 error-rate sweep.
struct ErrorRatePoint {
  double sensitivity = 0.5;
  double fp_ratio = 0.0;   ///< |D-A|/|T|
  double fn_ratio = 0.0;   ///< |A-D|/|T|
  double fp_percent_of_benign = 0.0;   ///< Of benign transactions alarmed.
  double fn_percent_of_attacks = 0.0;  ///< Of attacks missed.
};

/// Sweeps sensitivity with a fixed mixed attack scenario, one simulation
/// per point on the shared ProbeExecutor; `threads` bounds the points in
/// flight (0: only the executor's own bound).
std::vector<ErrorRatePoint> sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    std::size_t threads = 0);

/// Result of a single-pass sweep: the grid points in the same shape the
/// re-simulated sweep produces, plus the full continuous-threshold ROC
/// they were cut from.
struct SinglePassSweep {
  std::vector<ErrorRatePoint> points;
  score::RocCurve roc;
  double record_sensitivity = 0.5;
  std::uint64_t evidence_observations = 0;
};

/// Single-pass Figure 4: runs the identical mixed scenario ONCE with a
/// score ledger attached, then derives every sweep point offline from
/// the recorded per-transaction evidence (score::RocCurve). One
/// simulation plus a sort instead of one simulation per point.
///
/// Exactly equivalent to `sensitivity_sweep` whenever detection has no
/// feedback into simulation dynamics: pattern-rule signature detection
/// with no management console (no firewall blocks), no anomaly engine
/// (whose winsorized learning and cooldowns are threshold-coupled), and
/// no threshold rules (whose confidence gate also gates window-state
/// updates). Outside that envelope the derived points are a close
/// approximation whose quality the regression tests pin down.
SinglePassSweep single_pass_sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    double record_sensitivity = 0.5);

/// Equal Error Rate: the sensitivity where the Type I and Type II curves
/// cross (linear interpolation between sweep points; Figure 4). Uses the
/// percent-of-class curves, which is how EER is classically defined.
struct EqualErrorRate {
  double sensitivity = 0.0;
  double error_percent = 0.0;  ///< Common error level at the crossing.
  bool found = false;
};
EqualErrorRate equal_error_rate(const std::vector<ErrorRatePoint>& sweep);

}  // namespace idseval::harness
