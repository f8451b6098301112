// RunContext: the one object a unit of evaluation work (an evaluate
// call, a rank slot, a campaign cell, a load probe) records into. It
// owns (or borrows) the telemetry Registry and carries the trace sink,
// so the harness-facing API is explicit — callers hand a context down
// instead of installing thread-local registries around calls. The
// thread-local scoping the instruments rely on still exists, but only
// as an implementation detail behind RunContext::Scope.
#pragma once

#include <cstdint>
#include <string_view>

#include "results/doc.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace idseval::score {
class ScoreLedger;
}  // namespace idseval::score

namespace idseval::harness {

class ProbeExecutor;

class RunContext {
 public:
  /// Self-owned registry, no trace.
  RunContext() noexcept : registry_(&owned_) {}
  /// Self-owned registry, events to `trace` (may be null).
  explicit RunContext(telemetry::TraceSink* trace) noexcept
      : registry_(&owned_), trace_(trace) {}
  /// Records into `external` (falls back to the owned registry when
  /// null) — lets a caller accumulate several work units into one
  /// registry it already holds, e.g. Measurements::load_probe_telemetry.
  explicit RunContext(telemetry::Registry* external,
                      telemetry::TraceSink* trace = nullptr) noexcept
      : registry_(external != nullptr ? external : &owned_), trace_(trace) {}

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  telemetry::Registry& registry() noexcept { return *registry_; }
  const telemetry::Registry& registry() const noexcept { return *registry_; }
  telemetry::TraceSink* trace() const noexcept { return trace_; }

  /// Optional score ledger, threaded through like the registry: when
  /// set, evaluation detection runs record per-transaction evidence into
  /// it (Testbed::set_score_ledger). Null by default — recording is
  /// strictly opt-in so ordinary runs stay byte-identical.
  void set_score_ledger(score::ScoreLedger* ledger) noexcept {
    score_ledger_ = ledger;
  }
  score::ScoreLedger* score_ledger() const noexcept { return score_ledger_; }

  /// Executor the load probes run on; null (the default) selects the
  /// process-wide ProbeExecutor::shared(). Results do not depend on it —
  /// only wall-clock time does.
  void set_probe_executor(ProbeExecutor* executor) noexcept {
    probe_executor_ = executor;
  }
  ProbeExecutor* probe_executor() const noexcept { return probe_executor_; }

  /// Emits one event Doc to the trace; no-op without a sink.
  void emit(const results::Doc& event) {
    if (trace_ != nullptr) trace_->emit(event);
  }
  void flush_trace() {
    if (trace_ != nullptr) trace_->flush();
  }

  /// Installs the context's registry as the calling thread's ambient
  /// recording target for the scope's lifetime (components constructed
  /// inside resolve their instrument handles against it).
  class Scope {
   public:
    explicit Scope(RunContext& ctx) noexcept : scoped_(&ctx.registry()) {}

   private:
    telemetry::ScopedRegistry scoped_;
  };

 private:
  telemetry::Registry owned_;
  telemetry::Registry* registry_;
  telemetry::TraceSink* trace_ = nullptr;
  score::ScoreLedger* score_ledger_ = nullptr;
  ProbeExecutor* probe_executor_ = nullptr;
};

/// Standard trace events shared by the evaluate/rank commands: the
/// detection-window registry of one product evaluation...
results::Doc evaluation_event(std::string_view product,
                              std::string_view profile, std::uint64_t seed,
                              const telemetry::Registry& registry);
/// ...and the accumulated load-probe registry of the same evaluation.
results::Doc load_probes_event(std::string_view product,
                               std::string_view profile, std::uint64_t seed,
                               const telemetry::Registry& registry);

}  // namespace idseval::harness
