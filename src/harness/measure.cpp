#include "harness/measure.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness/probe_executor.hpp"
#include "telemetry/registry.hpp"

namespace idseval::harness {

using netsim::SimTime;

namespace {

/// The testbed a probe of `kind` runs.
TestbedConfig probe_config(const TestbedConfig& base, ProbeKind kind,
                           double rate_scale) {
  TestbedConfig cfg = base;
  cfg.rate_scale = rate_scale;
  if (kind == ProbeKind::kLatency || kind == ProbeKind::kLatencyBaseline) {
    cfg.warmup = SimTime::from_sec(5);
    cfg.measure = SimTime::from_sec(20);
    cfg.drain = SimTime::from_sec(2);
    return cfg;
  }
  cfg.warmup = SimTime::from_sec(4);
  cfg.measure = SimTime::from_sec(6);
  cfg.drain = SimTime::from_sec(2);
  if (kind == ProbeKind::kFlood) cfg.flood_train = kLethalDoseFloodTrain;
  return cfg;
}

/// One probe simulation on the calling thread, recording into the
/// ambient registry. Lethal-dose probes add a SYN-flood scenario whose
/// packets arrive in same-tick trains (kLethalDoseFloodTrain), so the
/// dose search drives the coalesced fan-out path deliberately rather
/// than relying on background traffic alone to overwhelm sensors.
RunResult simulate(const TestbedConfig& base,
                   const products::ProductModel& model, double sensitivity,
                   ProbeKind kind, double rate_scale,
                   Testbed::StopHook stop_hook = {}) {
  telemetry::count(telemetry::names::kHarnessProbes);
  const TestbedConfig cfg = probe_config(base, kind, rate_scale);
  Testbed bed(cfg, kind == ProbeKind::kLatencyBaseline ? nullptr : &model,
              sensitivity);
  bed.set_stop_hook(std::move(stop_hook));
  if (kind != ProbeKind::kFlood) return bed.run_clean();
  return bed.run(attack::KillChain::of_kinds(
      {attack::AttackKind::kSynFlood}, /*per_kind=*/2,
      netsim::SimTime::zero(), cfg.measure * 0.9,
      util::hash64("lethal-dose") ^ base.seed, base.external_hosts,
      base.internal_hosts));
}

LoadPoint point_from(const RunResult& r, double rate_scale) {
  LoadPoint p;
  p.rate_scale = rate_scale;
  p.offered_pps = r.offered_pps;
  p.tapped_pps = r.tapped_pps;
  p.processed_pps = r.processed_pps;
  p.loss_ratio = r.ids_loss_ratio;
  p.failures = r.sensor_failures;
  p.mean_delivery_latency_sec = r.mean_delivery_latency_sec;
  return p;
}

bool zero_loss_passes(const LoadPoint& p, double loss_epsilon) {
  return p.loss_ratio <= loss_epsilon && p.failures == 0;
}

/// True once a clean probe can no longer pass the zero-loss test: a
/// failure counted in the measured window only grows the final failure
/// count, and a sensor down past `run_end` is still down when the run is
/// collected (its recovery event lies beyond the last run_until).
bool zero_loss_verdict_fixed(const ids::Pipeline& pipeline, bool measuring,
                             SimTime run_end) {
  const auto down_past_end = [run_end](const ids::Sensor& s) {
    return s.failed() && s.down_until() > run_end;
  };
  for (const auto& sensor : pipeline.sensors()) {
    if (down_past_end(*sensor)) return true;
  }
  for (const auto& agent : pipeline.agents()) {
    if (down_past_end(agent->sensor())) return true;
  }
  return measuring && pipeline.totals().sensor_failures > 0;
}

// Executor priorities (lower runs first). The zero-loss search is the
// longest chain of dependent probes, so its next probe goes first, then
// the lethal-dose chain's; the independent ladder and latency probes
// fill in before speculation further down either decision tree.
constexpr int kSpeculationDepth = 2;
int zero_loss_priority(int depth) { return 3 * depth; }
int lethal_priority(int depth) { return 3 * depth + 1; }
constexpr int kIndependentPriority = 2;

/// Which measure consumed a probe; also the order telemetry merges in.
enum class Measure : std::uint8_t {
  kZeroLoss,
  kLadder,
  kLethalDose,
  kLatency,
  kSweep,
  kCount
};

/// One memoized probe simulation. The task writes the result fields; the
/// memo reads them only after the executor reports the task finished
/// (its mutex orders the two).
struct Probe {
  ProbeKind kind = ProbeKind::kClean;
  double scale = 0.0;
  /// May stop once its zero-loss verdict is fixed: a clean probe no
  /// measure reads in full.
  bool stoppable = false;
  std::atomic<bool> abandoned{false};
  ProbeExecutor::TaskRef task;
  int priority = 0;  ///< The most urgent any claim asked for.
  int claims = 0;
  bool consumed = false;

  LoadPoint point;
  bool stopped_early = false;
  telemetry::Registry registry;
  std::exception_ptr error;
};
using ProbeRef = std::shared_ptr<Probe>;

/// What every probe task of one measurement call reads.
struct ProbeInputs {
  TestbedConfig base;
  const products::ProductModel* model = nullptr;
  double sensitivity = 0.5;
};

void run_probe(const ProbeInputs& in, Probe& probe) noexcept {
  try {
    telemetry::ScopedRegistry scope(&probe.registry);
    const TestbedConfig cfg = probe_config(in.base, probe.kind, probe.scale);
    const SimTime run_end = cfg.warmup + cfg.measure + cfg.drain;
    Testbed::StopHook hook = [&probe, run_end](const ids::Pipeline& pipeline,
                                               bool measuring) {
      return probe.abandoned.load(std::memory_order_relaxed) ||
             (probe.stoppable &&
              zero_loss_verdict_fixed(pipeline, measuring, run_end));
    };
    const RunResult r = simulate(in.base, *in.model, in.sensitivity,
                                 probe.kind, probe.scale, std::move(hook));
    probe.point = point_from(r, probe.scale);
    probe.stopped_early = r.stopped_early;
  } catch (...) {
    probe.error = std::current_exception();
  }
#if defined(__GLIBC__)
  // Each executor thread allocates from its own malloc arena, and a
  // freed testbed leaves its pages resident there. Hand them back so
  // the next probes do not stack their peaks on another arena's garbage.
  malloc_trim(0);
#endif
}

/// The probes of one measurement call: a memo keyed on (kind, exact
/// scale bits), the claims the searches hold on them, and the record of
/// which measure used which probe in which order.
class ProbeMemo {
 public:
  ProbeMemo(const TestbedConfig& base, const products::ProductModel& model,
            double sensitivity, RunContext* probes)
      : inputs_(std::make_shared<ProbeInputs>(
            ProbeInputs{base, &model, sensitivity})),
        executor_(probes != nullptr && probes->probe_executor() != nullptr
                      ? *probes->probe_executor()
                      : ProbeExecutor::shared()),
        telemetry_(probes != nullptr ? &probes->registry()
                                     : telemetry::current()) {}

  ProbeMemo(const ProbeMemo&) = delete;
  ProbeMemo& operator=(const ProbeMemo&) = delete;

  /// Withdraws whatever is still queued and waits out running probes,
  /// so no task outlives the model it reads.
  ~ProbeMemo() {
    for (auto& [key, probe] : entries_) withdraw(*probe);
    for (auto& [key, probe] : entries_) executor_.wait(probe->task);
    for (const ProbeRef& probe : discarded_) executor_.wait(probe->task);
  }

  const TestbedConfig& base() const noexcept { return inputs_->base; }

  /// Clean probes at `scale` run in full: a measure reads more than
  /// their zero-loss verdict. Declared before any claim.
  void keep_full(double scale) { full_.insert(bits(scale)); }

  /// Claims the probe, starting it unless memoized.
  ProbeRef claim(ProbeKind kind, double scale, int priority) {
    ProbeRef& probe = entries_[{kind, bits(scale)}];
    if (!probe) {
      probe = std::make_shared<Probe>();
      probe->kind = kind;
      probe->scale = scale;
      probe->stoppable =
          kind == ProbeKind::kClean && !full_.contains(bits(scale));
      probe->priority = priority;
      probe->task = executor_.submit(
          priority, [inputs = inputs_, p = probe] { run_probe(*inputs, *p); });
    } else {
      hasten(probe, priority);
    }
    ++probe->claims;
    return probe;
  }

  /// Moves a queued probe up to `priority` if that is more urgent.
  void hasten(const ProbeRef& probe, int priority) {
    if (priority >= probe->priority) return;
    probe->priority = priority;
    executor_.set_priority(probe->task, priority);
  }

  /// Drops a claim. A probe nobody claims and nobody used is a
  /// speculative discard: withdrawn, stopped if running, forgotten.
  void release(const ProbeRef& probe) {
    if (--probe->claims > 0 || probe->consumed) return;
    ++discards_;
    withdraw(*probe);
    entries_.erase({probe->kind, bits(probe->scale)});
    if (!executor_.finished(probe->task)) discarded_.push_back(probe);
  }

  bool finished(const ProbeRef& probe) {
    return executor_.finished(probe->task);
  }

  void wait_any(const std::vector<ProbeRef>& probes) {
    std::vector<ProbeExecutor::TaskRef> tasks;
    tasks.reserve(probes.size());
    for (const ProbeRef& p : probes) tasks.push_back(p->task);
    executor_.wait_any(tasks);
  }

  /// The finished probe's result, recorded as used by `measure` next.
  /// Only the zero-loss search may read a probe that stopped early (it
  /// reads the verdict alone).
  const LoadPoint& consume(const ProbeRef& probe, Measure measure) {
    if (probe->error) std::rethrow_exception(probe->error);
    if (probe->stopped_early && measure != Measure::kZeroLoss) {
      throw std::logic_error("a truncated probe cannot serve this measure");
    }
    probe->consumed = true;
    used_[static_cast<std::size_t>(measure)].push_back(probe);
    return probe->point;
  }

  /// Merges the used probes' telemetry in measure order, each probe once
  /// (at its first use); later uses count as memo hits.
  void merge_telemetry() {
    if (telemetry_ == nullptr) return;
    std::set<const Probe*> merged;
    std::uint64_t entries_hits = 0;
    std::uint64_t early_exits = 0;
    for (const std::vector<ProbeRef>& used : used_) {
      for (const ProbeRef& probe : used) {
        if (!merged.insert(probe.get()).second) {
          ++entries_hits;
          continue;
        }
        telemetry_->merge_from(probe->registry);
        if (probe->stopped_early) ++early_exits;
      }
    }
    namespace names = telemetry::names;
    telemetry_->counter(names::kHarnessProbeMemoHits).increment(entries_hits);
    telemetry_->counter(names::kHarnessProbeEarlyExits)
        .increment(early_exits);
    telemetry_->counter(names::kHarnessProbeSpeculativeDiscards)
        .increment(discards_);
  }

 private:
  static std::uint64_t bits(double scale) noexcept {
    return std::bit_cast<std::uint64_t>(scale);
  }

  /// Unqueues the probe, or makes its stop hook end it if it runs.
  void withdraw(Probe& probe) {
    probe.abandoned.store(true, std::memory_order_relaxed);
    executor_.cancel(probe.task);
  }

  std::shared_ptr<const ProbeInputs> inputs_;
  ProbeExecutor& executor_;
  telemetry::Registry* telemetry_;
  std::map<std::pair<ProbeKind, std::uint64_t>, ProbeRef> entries_;
  std::set<std::uint64_t> full_;
  std::array<std::vector<ProbeRef>, static_cast<std::size_t>(Measure::kCount)>
      used_;
  /// Discarded probes still running; waited for on destruction.
  std::vector<ProbeRef> discarded_;
  std::uint64_t discards_ = 0;
};

/// A measurement driven probe by probe. advance() consumes every
/// finished probe in the sequential search's order and claims what comes
/// next. It returns the one unfinished probe the search is blocked on, or
/// null once the answer is known; a search never names a probe it is not
/// waiting for, so its caller wakes only when it can make progress.
class Search {
 public:
  virtual ~Search() = default;
  virtual ProbeRef advance() = 0;
};

/// Runs searches side by side on the calling thread until all finish.
/// Only a finished search returns null, so an empty wait list means all
/// are done; a probe that finishes after advance() looked at it makes
/// wait_any return at once.
void run_searches(ProbeMemo& memo, std::initializer_list<Search*> all) {
  for (;;) {
    std::vector<ProbeRef> waiting;
    for (Search* search : all) {
      if (ProbeRef p = search->advance()) waiting.push_back(std::move(p));
    }
    if (waiting.empty()) return;
    memo.wait_any(waiting);
  }
}

/// The claims one search holds, by scale; reconciled against the probes
/// the search wants next.
class Claims {
 public:
  Claims(ProbeMemo& memo, ProbeKind kind)
      : memo_(memo), kind_(kind) {}
  Claims(const Claims&) = delete;
  Claims& operator=(const Claims&) = delete;
  ~Claims() { set({}); }

  /// Holds exactly `wanted` (scale -> priority): claims new scales,
  /// hastens kept ones, releases the rest.
  void set(const std::map<double, int>& wanted) {
    std::erase_if(held_, [&](const auto& held) {
      if (wanted.contains(held.first)) return false;
      memo_.release(held.second);
      return true;
    });
    for (const auto& [scale, priority] : wanted) {
      if (const auto it = held_.find(scale); it != held_.end()) {
        memo_.hasten(it->second, priority);
      } else {
        held_.emplace(scale, memo_.claim(kind_, scale, priority));
      }
    }
  }

  const ProbeRef& at(double scale) const { return held_.at(scale); }

 private:
  ProbeMemo& memo_;
  ProbeKind kind_;
  std::map<double, ProbeRef> held_;
};

/// Maximal Throughput with Zero Loss as a decision tree. State is the
/// sequential search's loop state; next() is one loop step given a
/// probe's verdict, so the real path replays the sequential search
/// exactly and hypothetical verdicts name the probes to speculate on.
class ZeroLossSearch final : public Search {
 public:
  ZeroLossSearch(ProbeMemo& memo, double max_scale,
                 double loss_epsilon, int iterations)
      : memo_(memo),
        max_scale_(max_scale),
        loss_epsilon_(loss_epsilon),
        iterations_(iterations),
        claims_(memo, ProbeKind::kClean),
        state_(settle(State{})) {}

  ProbeRef advance() override {
    while (state_.phase != Phase::kDone) {
      speculate();
      const ProbeRef& probe = claims_.at(scale_of(state_));
      if (!memo_.finished(probe)) return probe;
      const LoadPoint& p = memo_.consume(probe, Measure::kZeroLoss);
      state_ = next(state_, zero_loss_passes(p, loss_epsilon_), p.offered_pps);
    }
    claims_.set({});
    return nullptr;
  }

  double result() const noexcept { return state_.result; }

 private:
  enum class Phase : std::uint8_t { kBracket, kMaxProbe, kBisect, kDone };
  struct State {
    Phase phase = Phase::kBracket;
    double lo = 0.0;      ///< Highest scale with zero loss.
    double lo_pps = 0.0;  ///< Offered rate of the last passing probe.
    double hi = 0.0;      ///< Lowest scale with loss (0 = none found).
    double scale = 1.0;   ///< Next bracket scale.
    int iteration = 0;
    double result = 0.0;
  };

  double scale_of(const State& s) const {
    switch (s.phase) {
      case Phase::kBracket:
        return s.scale;
      case Phase::kMaxProbe:
        return max_scale_;
      default:
        return 0.5 * (s.lo + s.hi);
    }
  }

  /// Takes the steps that need no probe: the end of the doubling
  /// bracket, and the end of the bisection.
  State settle(State s) const {
    if (s.phase == Phase::kBracket && !(s.scale <= max_scale_)) {
      if (s.lo < max_scale_) {
        // The doubling stopped short of max_scale; probe it directly so
        // fast products are measured at the full range, not at the last
        // power of two.
        s.phase = Phase::kMaxProbe;
      } else {
        s.phase = Phase::kDone;  // never lost anything up to max_scale
        s.result = s.lo_pps;
      }
    }
    if (s.phase == Phase::kBisect && s.iteration >= iterations_) {
      s.phase = Phase::kDone;
      s.result = s.lo_pps;
    }
    return s;
  }

  State next(State s, bool pass, double offered_pps) const {
    switch (s.phase) {
      case Phase::kBracket:
        if (pass) {
          s.lo = s.scale;
          s.lo_pps = offered_pps;
          s.scale *= 2.0;
        } else {
          s.hi = s.scale;
          s.phase = Phase::kBisect;
        }
        break;
      case Phase::kMaxProbe:
        if (pass) {
          s.phase = Phase::kDone;
          s.result = offered_pps;
        } else {
          s.hi = max_scale_;
          s.phase = Phase::kBisect;
        }
        break;
      case Phase::kBisect: {
        const double mid = 0.5 * (s.lo + s.hi);
        if (pass) {
          s.lo = mid;
          s.lo_pps = offered_pps;
        } else {
          s.hi = mid;
        }
        ++s.iteration;
        break;
      }
      case Phase::kDone:
        break;
    }
    return settle(s);
  }

  /// Claims the current probe and every probe within kSpeculationDepth
  /// further steps of it, whichever verdicts come back.
  void speculate() {
    std::map<double, int> wanted;
    const auto visit = [&](const auto& self, const State& s,
                           int depth) -> void {
      if (s.phase == Phase::kDone) return;
      const double scale = scale_of(s);
      const int priority = zero_loss_priority(depth);
      auto [it, inserted] = wanted.emplace(scale, priority);
      if (!inserted) it->second = std::min(it->second, priority);
      if (depth == kSpeculationDepth) return;
      self(self, next(s, true, 0.0), depth + 1);
      self(self, next(s, false, 0.0), depth + 1);
    };
    visit(visit, state_, 0);
    claims_.set(wanted);
  }

  ProbeMemo& memo_;
  double max_scale_;
  double loss_epsilon_;
  int iterations_;
  Claims claims_;
  State state_;
};

/// Probes a fixed list of clean scales and hands back every point.
class PointsSearch final : public Search {
 public:
  PointsSearch(ProbeMemo& memo, std::vector<double> scales,
               Measure measure)
      : memo_(memo),
        measure_(measure),
        scales_(std::move(scales)),
        claims_(memo, ProbeKind::kClean) {
    std::map<double, int> wanted;
    for (const double scale : scales_) {
      memo.keep_full(scale);
      wanted.emplace(scale, kIndependentPriority);
    }
    claims_.set(wanted);
  }

  /// Consumes the points in list order, blocked on the first unread.
  ProbeRef advance() override {
    while (points_.size() < scales_.size()) {
      const ProbeRef& probe = claims_.at(scales_[points_.size()]);
      if (!memo_.finished(probe)) return probe;
      points_.push_back(memo_.consume(probe, measure_));
    }
    claims_.set({});
    return nullptr;
  }

  const std::vector<LoadPoint>& points() const noexcept { return points_; }

 private:
  ProbeMemo& memo_;
  Measure measure_;
  std::vector<double> scales_;
  Claims claims_;
  std::vector<LoadPoint> points_;
};

/// The System Throughput ladder: every rung is needed, so all run at
/// once.
std::vector<double> throughput_ladder(double overload_scale) {
  return {overload_scale / 8.0, overload_scale / 4.0, overload_scale / 3.0,
          overload_scale * 0.4, overload_scale / 2.0, overload_scale * 0.75,
          overload_scale};
}

double best_processed(const std::vector<LoadPoint>& points) {
  double best = 0.0;
  for (const LoadPoint& p : points) best = std::max(best, p.processed_pps);
  return best;
}

/// Network Lethal Dose: flood rungs in order until one trips a failure,
/// with the next kSpeculationDepth rungs running ahead.
class LethalDoseSearch final : public Search {
 public:
  LethalDoseSearch(ProbeMemo& memo, double max_scale)
      : memo_(memo), claims_(memo, ProbeKind::kFlood) {
    for (double scale = 2.0; scale <= max_scale; scale *= 1.6) {
      rungs_.push_back(scale);
    }
  }

  ProbeRef advance() override {
    while (next_ < rungs_.size() && !result_) {
      std::map<double, int> wanted;
      for (std::size_t d = 0;
           d <= kSpeculationDepth && next_ + d < rungs_.size(); ++d) {
        wanted.emplace(rungs_[next_ + d],
                       lethal_priority(static_cast<int>(d)));
      }
      claims_.set(wanted);
      const ProbeRef& probe = claims_.at(rungs_[next_]);
      if (!memo_.finished(probe)) return probe;
      const LoadPoint& p = memo_.consume(probe, Measure::kLethalDose);
      if (p.failures > 0) result_ = p.offered_pps;
      ++next_;
    }
    claims_.set({});
    return nullptr;
  }

  std::optional<double> result() const noexcept { return result_; }

 private:
  ProbeMemo& memo_;
  Claims claims_;
  std::vector<double> rungs_;
  std::size_t next_ = 0;
  std::optional<double> result_;
};

/// Induced Traffic Latency: the product run and the no-IDS baseline.
class LatencySearch final : public Search {
 public:
  explicit LatencySearch(ProbeMemo& memo)
      : memo_(memo),
        with_ids_(memo, ProbeKind::kLatency),
        baseline_(memo, ProbeKind::kLatencyBaseline),
        scale_(memo.base().rate_scale) {
    with_ids_.set({{scale_, kIndependentPriority}});
    baseline_.set({{scale_, kIndependentPriority}});
  }

  ProbeRef advance() override {
    if (done_) return nullptr;
    const ProbeRef& a = with_ids_.at(scale_);
    const ProbeRef& b = baseline_.at(scale_);
    if (!memo_.finished(a)) return a;
    if (!memo_.finished(b)) return b;
    const double with_ids =
        memo_.consume(a, Measure::kLatency).mean_delivery_latency_sec;
    const double baseline =
        memo_.consume(b, Measure::kLatency).mean_delivery_latency_sec;
    result_ = std::max(0.0, with_ids - baseline);
    with_ids_.set({});
    baseline_.set({});
    done_ = true;
    return nullptr;
  }

  double result() const noexcept { return result_; }

 private:
  ProbeMemo& memo_;
  Claims with_ids_;
  Claims baseline_;
  double scale_;
  double result_ = 0.0;
  bool done_ = false;
};

}  // namespace

LoadPoint run_load_probe(const TestbedConfig& base,
                         const products::ProductModel& model,
                         double sensitivity, ProbeKind kind,
                         double rate_scale) {
  return point_from(simulate(base, model, sensitivity, kind, rate_scale),
                    rate_scale);
}

std::vector<LoadPoint> load_sweep(const TestbedConfig& base,
                                  const products::ProductModel& model,
                                  double sensitivity,
                                  const std::vector<double>& rate_scales,
                                  RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  PointsSearch sweep(memo, rate_scales, Measure::kSweep);
  run_searches(memo, {&sweep});
  memo.merge_telemetry();
  return sweep.points();
}

double measure_zero_loss_pps(const TestbedConfig& base,
                             const products::ProductModel& model,
                             double sensitivity, double max_scale,
                             double loss_epsilon, int iterations,
                             RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  ZeroLossSearch search(memo, max_scale, loss_epsilon, iterations);
  run_searches(memo, {&search});
  memo.merge_telemetry();
  return search.result();
}

double measure_system_throughput_pps(const TestbedConfig& base,
                                     const products::ProductModel& model,
                                     double sensitivity,
                                     double overload_scale,
                                     RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  PointsSearch ladder(memo, throughput_ladder(overload_scale),
                      Measure::kLadder);
  run_searches(memo, {&ladder});
  memo.merge_telemetry();
  return best_processed(ladder.points());
}

std::optional<double> measure_lethal_dose_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double max_scale, RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  LethalDoseSearch search(memo, max_scale);
  run_searches(memo, {&search});
  memo.merge_telemetry();
  return search.result();
}

double measure_induced_latency_sec(const TestbedConfig& base,
                                   const products::ProductModel& model,
                                   double sensitivity, RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  LatencySearch search(memo);
  run_searches(memo, {&search});
  memo.merge_telemetry();
  return search.result();
}

LoadMetrics measure_load_metrics(const TestbedConfig& base,
                                 const products::ProductModel& model,
                                 double sensitivity,
                                 const LoadSearchOptions& options,
                                 RunContext* probes) {
  ProbeMemo memo(base, model, sensitivity, probes);
  // The ladder claims first, so the probes it shares with the zero-loss
  // search are known to run in full before either starts.
  PointsSearch ladder(memo, throughput_ladder(options.overload_scale),
                      Measure::kLadder);
  ZeroLossSearch zero_loss(memo, options.zero_loss_max_scale,
                           options.loss_epsilon, options.iterations);
  LethalDoseSearch lethal(memo, options.lethal_max_scale);
  LatencySearch latency(memo);
  run_searches(memo, {&zero_loss, &ladder, &lethal, &latency});
  memo.merge_telemetry();

  LoadMetrics m;
  m.zero_loss_pps = zero_loss.result();
  m.system_throughput_pps = best_processed(ladder.points());
  m.lethal_dose_pps = lethal.result();
  m.induced_latency_sec = latency.result();
  return m;
}

std::vector<ErrorRatePoint> sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    std::size_t threads) {
  std::vector<ErrorRatePoint> points(sensitivities.size());
  std::vector<std::exception_ptr> errors(sensitivities.size());
  const auto run_point = [&](std::size_t i) {
    Testbed bed(base, &model, sensitivities[i]);
    const RunResult r = bed.run(attack::KillChain::mixed(
        attacks_per_kind, SimTime::zero(), base.measure * 0.9,
        util::hash64("sweep") ^ base.seed, base.external_hosts,
        base.internal_hosts));
    ErrorRatePoint p;
    p.sensitivity = sensitivities[i];
    p.fp_ratio = r.fp_ratio;
    p.fn_ratio = r.fn_ratio;
    const double benign =
        static_cast<double>(r.transactions - r.attacks);
    p.fp_percent_of_benign =
        benign > 0.0 ? 100.0 * static_cast<double>(r.false_alarms) / benign
                     : 0.0;
    p.fn_percent_of_attacks =
        r.attacks > 0 ? 100.0 * static_cast<double>(r.missed_attacks) /
                            static_cast<double>(r.attacks)
                      : 0.0;
    points[i] = p;
  };
  // Each point is an independent simulation on the probe executor, at
  // most `threads` (0: no extra limit) in flight at once.
  ProbeExecutor& executor = ProbeExecutor::shared();
  const std::size_t width =
      threads == 0 ? sensitivities.size() : threads;
  std::vector<ProbeExecutor::TaskRef> running;
  std::size_t next = 0;
  while (next < sensitivities.size() || !running.empty()) {
    while (next < sensitivities.size() && running.size() < width) {
      const std::size_t i = next++;
      running.push_back(
          executor.submit(kIndependentPriority, [&run_point, &errors, i] {
            try {
              run_point(i);
            } catch (...) {
              errors[i] = std::current_exception();
            }
          }));
    }
    executor.wait_any(running);
    std::erase_if(running, [&executor](const ProbeExecutor::TaskRef& t) {
      return executor.finished(t);
    });
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return points;
}

SinglePassSweep single_pass_sensitivity_sweep(
    const TestbedConfig& base, const products::ProductModel& model,
    const std::vector<double>& sensitivities, std::size_t attacks_per_kind,
    double record_sensitivity) {
  // Same chain construction as the re-simulated sweep, so the two paths
  // score the identical ground truth.
  score::ScoreLedger ledger;
  Testbed bed(base, &model, record_sensitivity);
  bed.set_score_ledger(&ledger);
  bed.run(attack::KillChain::mixed(
      attacks_per_kind, SimTime::zero(), base.measure * 0.9,
      util::hash64("sweep") ^ base.seed, base.external_hosts,
      base.internal_hosts));

  SinglePassSweep out;
  out.record_sensitivity = record_sensitivity;
  out.evidence_observations = ledger.observations();
  out.roc = score::RocCurve(ledger.samples());
  out.points.reserve(sensitivities.size());
  for (const double s : sensitivities) {
    const score::ErrorCounts c = out.roc.error_rate_at(s);
    ErrorRatePoint p;
    p.sensitivity = s;
    p.fp_ratio = c.fp_ratio;
    p.fn_ratio = c.fn_ratio;
    p.fp_percent_of_benign = c.fp_percent_of_benign;
    p.fn_percent_of_attacks = c.fn_percent_of_attacks;
    out.points.push_back(p);
  }
  return out;
}

EqualErrorRate equal_error_rate(const std::vector<ErrorRatePoint>& sweep) {
  EqualErrorRate eer;
  // diff = FN% - FP%: positive at low sensitivity (missing attacks),
  // negative at high (false alarms). The crossing is the EER.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const double d0 =
        sweep[i - 1].fn_percent_of_attacks - sweep[i - 1].fp_percent_of_benign;
    const double d1 =
        sweep[i].fn_percent_of_attacks - sweep[i].fp_percent_of_benign;
    if ((d0 >= 0.0 && d1 <= 0.0) || (d0 <= 0.0 && d1 >= 0.0)) {
      const double span = d0 - d1;
      const double t = span == 0.0 ? 0.5 : d0 / span;
      eer.sensitivity = sweep[i - 1].sensitivity +
                        t * (sweep[i].sensitivity - sweep[i - 1].sensitivity);
      const double fp0 = sweep[i - 1].fp_percent_of_benign;
      const double fp1 = sweep[i].fp_percent_of_benign;
      eer.error_percent = fp0 + t * (fp1 - fp0);
      eer.found = true;
      return eer;
    }
  }
  return eer;
}

}  // namespace idseval::harness
