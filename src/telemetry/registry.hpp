// Runtime telemetry for the evaluation pipeline: named counters and
// latency statistics collected per measurement run, so every score the
// harness produces is traceable to the stage-level behaviour that
// produced it. Recording is designed to be safe to leave permanently
// enabled: a component resolves its handles once at construction time
// (a map lookup), after which each observation is an increment or a
// Welford/histogram update — no locks, no allocation, no I/O.
//
// Scoping is thread-local: the harness installs a Registry around a unit
// of work (one evaluation, one campaign cell) with ScopedRegistry, and
// every component constructed on that thread while the scope is active
// records into it. With no registry installed, handles are null and all
// recording is a no-op. Because each campaign cell gets its own registry
// on its worker thread and aggregate merging happens in cell-index
// order, telemetry is byte-identical regardless of worker count — and it
// never feeds back into the seeded simulation, so enabling it cannot
// perturb results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "results/doc.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace idseval::telemetry {

/// Monotonic event counter. Window-scoped counters are reset by their
/// owning component's reset_stats(); others run for the registry's life.
class Counter {
 public:
  void increment(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }
  /// Raw cell for layers below telemetry (util::FlowTable binds plain
  /// uint64 cells); stable for the registry's lifetime like handles.
  std::uint64_t* cell() noexcept { return &value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Latency observations in seconds: Welford moments for mean/min/max
/// plus a log2 histogram for quantiles over many orders of magnitude.
class LatencyStat {
 public:
  void record(double seconds) noexcept {
    stats_.add(seconds);
    histogram_.add(seconds);
  }
  const util::RunningStats& stats() const noexcept { return stats_; }
  const util::LogHistogram& histogram() const noexcept { return histogram_; }
  void reset() noexcept {
    stats_.reset();
    histogram_ = util::LogHistogram{};
  }
  void merge(const LatencyStat& other) noexcept {
    stats_.merge(other.stats_);
    histogram_.merge(other.histogram_);
  }

 private:
  util::RunningStats stats_;
  util::LogHistogram histogram_;
};

/// Named instrument store. Handles returned by counter()/latency() stay
/// valid for the registry's lifetime (map nodes are address-stable), so
/// components resolve them once and record through raw pointers. Not
/// thread-safe by design: a registry belongs to exactly one thread (the
/// simulation is single-threaded per cell).
class Registry {
 public:
  Counter& counter(std::string_view name);
  LatencyStat& latency(std::string_view name);

  /// Lookup without creation; nullptr when the name was never recorded.
  const Counter* find_counter(std::string_view name) const noexcept;
  const LatencyStat* find_latency(std::string_view name) const noexcept;

  const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  const std::map<std::string, LatencyStat, std::less<>>& latencies()
      const noexcept {
    return latencies_;
  }

  /// Accumulates another registry (counters add, latencies merge) — THE
  /// deterministic merge primitive: map iteration is name-sorted, so two
  /// merges of the same registries in the same call order produce
  /// bit-identical aggregates regardless of insertion history. Callers
  /// own the call order: campaign aggregation merges per-cell registries
  /// in cell-index order, sharded runs merge per-shard registries in
  /// shard-index order.
  void merge_from(const Registry& other);
  /// Deprecated spelling of merge_from (kept for older call sites).
  void merge(const Registry& other) { merge_from(other); }
  void reset() noexcept;
  bool empty() const noexcept {
    return counters_.empty() && latencies_.empty();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, LatencyStat, std::less<>> latencies_;
};

/// The registry installed on this thread, or nullptr.
Registry* current() noexcept;

/// RAII install/restore of the thread's current registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry) noexcept;
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

/// Construction-time handle resolution: nullptr when no registry is
/// installed, in which case bump()/record() are no-ops.
Counter* counter_handle(std::string_view name);
LatencyStat* latency_handle(std::string_view name);

/// Raw counter cell, or nullptr without a registry — the binding shape
/// util::FlowTable accepts (util cannot depend on this layer).
inline std::uint64_t* counter_cell(std::string_view name) {
  Counter* counter = counter_handle(name);
  return counter == nullptr ? nullptr : counter->cell();
}

/// Binds a flow table's probe/lookup counts to the shared registry-wide
/// "flowtable.*" counters (no-op handles without a registry). All bound
/// tables aggregate into the same pair, giving the run's total table
/// traffic; per-table stats stay available via FlowTable::stats().
template <class Table>
void bind_flow_table(Table& table);

/// Builds per-instance stage names like "sensor.0.offered" from a scope
/// ("sensor.0") and a stage suffix ("offered"). Empty scope → empty
/// result, so callers can gate scoped handles on the scope being set.
std::string scoped_name(std::string_view scope, std::string_view stage);

inline void bump(Counter* c, std::uint64_t n = 1) noexcept {
  if (c != nullptr) c->increment(n);
}
inline void record(LatencyStat* l, double seconds) noexcept {
  if (l != nullptr) l->record(seconds);
}
inline void reset(Counter* c) noexcept {
  if (c != nullptr) c->reset();
}
inline void reset(LatencyStat* l) noexcept {
  if (l != nullptr) l->reset();
}

/// One-off counter bump by name (map lookup per call — for cold paths
/// like harness probes, not per-packet code).
void count(std::string_view name, std::uint64_t n = 1);

// Instrument naming scheme: "<stage>.<event>" counters and
// "<stage>.<quantity>" latency stats, stages ordered as traffic flows
// through Figure 1. Window-scoped instruments reset with the component's
// reset_stats(); switch.* counters are whole-run (the switch belongs to
// the network, not the IDS, and is never reset between windows).
namespace names {
inline constexpr std::string_view kSimCallbackFallbacks =
    "sim.callback_fallbacks";
inline constexpr std::string_view kPayloadPoolHits = "payload.pool_hits";
inline constexpr std::string_view kPayloadPoolMisses = "payload.pool_misses";
// Variants minted beyond the base cycle by adaptive per-kind growth
// (PayloadPool::enable_growth) for low-entropy payload kinds.
inline constexpr std::string_view kPayloadPoolGrown = "payload.pool_grown";
// Interned-payload scan cache (ids/scan_cache.hpp): engine memo traffic,
// aggregated across all signature/anomaly engines in the run.
inline constexpr std::string_view kScanCacheHits = "scan_cache.hits";
inline constexpr std::string_view kScanCacheMisses = "scan_cache.misses";
inline constexpr std::string_view kScanCacheBytesSaved =
    "scan_cache.bytes_saved";
inline constexpr std::string_view kScanCacheBoundaryRescans =
    "scan_cache.boundary_rescans";
inline constexpr std::string_view kSwitchMirrored = "switch.mirrored";
inline constexpr std::string_view kSwitchForwarded = "switch.forwarded";
inline constexpr std::string_view kSwitchBlocked = "switch.blocked";
inline constexpr std::string_view kPipelineTapped = "pipeline.tapped";
inline constexpr std::string_view kPipelineFiltered = "pipeline.filtered";
inline constexpr std::string_view kLbOffered = "lb.offered";
inline constexpr std::string_view kLbDropped = "lb.dropped";
inline constexpr std::string_view kLbQueueWait = "lb.queue_wait";
inline constexpr std::string_view kLbPinEvictions = "lb.pin_evictions";
inline constexpr std::string_view kFlowTableProbes = "flowtable.probes";
inline constexpr std::string_view kFlowTableLookups = "flowtable.lookups";
inline constexpr std::string_view kSensorOffered = "sensor.offered";
inline constexpr std::string_view kSensorDropped = "sensor.dropped";
inline constexpr std::string_view kSensorDetections = "sensor.detections";
inline constexpr std::string_view kSensorService = "sensor.service";
inline constexpr std::string_view kAnalyzerReports = "analyzer.reports";
inline constexpr std::string_view kAnalyzerBatch = "analyzer.batch";
inline constexpr std::string_view kMonitorAlerts = "monitor.alerts";
inline constexpr std::string_view kMonitorAlertLatency = "monitor.alert";
inline constexpr std::string_view kMonitorEvictions = "monitor.evictions";
inline constexpr std::string_view kConsoleBlocks = "console.blocks";
inline constexpr std::string_view kHarnessProbes = "harness.probes";
// Load-probe search bookkeeping (harness/measure.hpp): probe results one
// measure reused from another's simulation, probes the stop hook ended
// once their verdict was fixed, and speculative probes the searches
// issued but never used (those merge no other telemetry).
inline constexpr std::string_view kHarnessProbeMemoHits =
    "harness.probe_memo_hits";
inline constexpr std::string_view kHarnessProbeEarlyExits =
    "harness.probe_early_exits";
inline constexpr std::string_view kHarnessProbeSpeculativeDiscards =
    "harness.probe_speculative_discards";
inline constexpr std::string_view kCampaignCellWall = "campaign.cell_wall";
}  // namespace names

/// Compact per-stage summary derived from a LatencyStat (quantile via
/// the log2 histogram's bucket midpoint).
struct StageSummary {
  std::uint64_t count = 0;
  double mean_sec = 0.0;
  double p99_sec = 0.0;
  double max_sec = 0.0;
};

/// The fixed set of pipeline instruments persisted with campaign cells
/// and rendered in evaluation reports. Everything in here derives from
/// simulation time and seeded behaviour only — never wall clock — so it
/// round-trips deterministically.
struct PipelineSnapshot {
  std::uint64_t tapped = 0;
  std::uint64_t filtered = 0;
  std::uint64_t lb_offered = 0;
  std::uint64_t lb_dropped = 0;
  std::uint64_t sensor_offered = 0;
  std::uint64_t sensor_dropped = 0;
  std::uint64_t detections = 0;
  std::uint64_t reports = 0;
  std::uint64_t alerts = 0;
  std::uint64_t blocks = 0;
  StageSummary lb_wait;
  StageSummary sensor_service;
  StageSummary analyzer_batch;
  StageSummary monitor_alert;

  bool empty() const noexcept {
    return tapped == 0 && filtered == 0 && lb_offered == 0 &&
           sensor_offered == 0 && detections == 0 && reports == 0 &&
           alerts == 0 && blocks == 0;
  }
};

StageSummary summarize(const LatencyStat& stat) noexcept;

/// Reads the pipeline instruments out of a registry (zeros for absent
/// names, so a registry that saw no traffic yields an empty snapshot).
PipelineSnapshot snapshot_pipeline(const Registry& registry);

/// Table-shaped Doc (see results/table.hpp) for the per-stage latency
/// table — the single source the text render and CSV export share.
results::Doc telemetry_stage_table(const PipelineSnapshot& snapshot);

/// Table-shaped Doc of per-instance scoped instruments ("sensor.N.*" /
/// "agent.N.*") found in `registry`, sensors before agents, numeric
/// instance order. Zero data rows when the registry carries none.
results::Doc telemetry_instance_table(const Registry& registry);

/// "Pipeline telemetry" report section: counters line + per-stage
/// latency table.
std::string render_telemetry(const PipelineSnapshot& snapshot);

/// As above, plus a per-instance sensor/agent table when `registry`
/// carries scoped instruments.
std::string render_telemetry(const PipelineSnapshot& snapshot,
                             const Registry& registry);

/// Human-readable duration with an adaptive unit (ns/us/ms/s).
std::string fmt_duration(double seconds);

template <class Table>
void bind_flow_table(Table& table) {
  table.bind_counters(counter_cell(names::kFlowTableProbes),
                      counter_cell(names::kFlowTableLookups));
}

}  // namespace idseval::telemetry
