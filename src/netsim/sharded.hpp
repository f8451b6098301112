// Conservative parallel discrete-event engine: N independent Simulators
// ("shards"), each owning its own event heap, advanced in lockstep
// windows bounded by a lookahead horizon. The horizon is the
// minimum declared cross-shard channel delay — for packet channels that
// is the cross-shard Link's propagation latency, which the constant-
// latency FIFO links guarantee is a valid lower bound on send-to-arrival.
//
// Window protocol (the classic conservative-lookahead barrier):
//   1. compute gm = min over shards of (next local event, pending remote
//      groups, undelivered mailbox messages); stop if gm > deadline
//   2. flush: each shard emits every cross-shard delivery group that can
//      no longer grow (group tick < gm + that link's latency) into
//      per-(src,dst) mailboxes
//   3. inject: every shard's inbound mailboxes — concatenated in
//      source-shard order, stably sorted by (when, lane, seq) — are
//      scheduled into its heap, still at the barrier
//   4. run: each shard runs its queue through [gm, gm + lookahead)
//
// Safety: any message produced while running the window is sent at time
// s >= gm and arrives at s + channel_delay >= gm + lookahead, i.e. at or
// beyond the window end — no shard can receive a message from its past.
//
// Determinism: mailboxes are single-writer (the source shard) during the
// run phase and only drained at barriers while every shard is quiescent,
// so the exchange is lock-free by phase separation; the (when, lane, seq)
// injection sort makes the merged order identical to the order a single
// serial heap would have produced (lanes give same-tick events a
// canonical cross-entity order — see Simulator::schedule_at_lane, and a
// lane has exactly one writing shard, so barrier-deferred injection can
// never reorder a lane's messages). Sequential and threaded execution
// run the exact same per-shard work and are bit-identical; with one
// shard run_until() delegates straight to the legacy single-queue loop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "netsim/address.hpp"
#include "netsim/sim_time.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/inline_callback.hpp"

namespace idseval::netsim {

/// Deterministic host -> shard partition. Shard 0 is the hub (traffic
/// generation, switch, IDS pipeline); hosts spread over shards 1..N-1 by
/// topology hash. The map depends only on the address and the shard
/// count, never on attach order.
class ShardPlan {
 public:
  /// `shards` == 0 is treated as 1: everything on shard 0.
  explicit ShardPlan(std::size_t shards) noexcept
      : shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const noexcept { return shards_; }
  std::size_t shard_of(Ipv4 addr) const noexcept;

 private:
  std::size_t shards_;
};

/// N shards, per-(src,dst) mailboxes, conservative window loop.
class ShardedSimulator {
 public:
  struct ShardStats {
    std::uint64_t messages = 0;        ///< Cross-shard messages injected.
    double barrier_stall_sec = 0.0;    ///< Wall time idle at barriers.
    double work_sec = 0.0;             ///< Wall time running events.
  };
  struct Stats {
    std::uint64_t windows = 0;  ///< Lookahead windows executed.
    std::vector<ShardStats> shard;

    std::uint64_t total_messages() const noexcept {
      std::uint64_t total = 0;
      for (const ShardStats& s : shard) total += s.messages;
      return total;
    }
  };

  /// A per-shard source of cross-shard messages drained at barriers
  /// (remote links register one per owning network).
  struct Source {
    std::function<SimTime()> pending_min;       ///< Earliest pending tick.
    std::function<void(SimTime)> flush;         ///< Flush final groups.
  };

  explicit ShardedSimulator(const ShardPlan& plan);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shards() const noexcept { return sims_.size(); }
  const ShardPlan& plan() const noexcept { return plan_; }
  Simulator& shard(std::size_t i) noexcept { return *sims_[i]; }
  /// Shard 0 — the hub, and the only shard at N=1.
  Simulator& hub() noexcept { return *sims_[0]; }
  /// Telemetry registry owned for shard i (nullptr for shard 0, which
  /// records into the ambient thread-local registry of the caller).
  telemetry::Registry* registry(std::size_t i) noexcept {
    return i == 0 ? nullptr : registries_[i].get();
  }

  /// Declares a message channel src -> dst with its minimum delay; the
  /// window lookahead is the minimum over all declared channels. Must be
  /// called before run_until; delays must be > 0.
  void add_channel(std::size_t src, std::size_t dst, SimTime min_delay);
  SimTime lookahead() const noexcept { return lookahead_; }

  /// Registers a barrier-drained message source owned by shard `s`.
  void add_source(std::size_t s, Source source);

  /// Posts a message from shard `src` to shard `dst`, to be executed at
  /// `when` on lane `lane`. Callable only from src's own execution (its
  /// event callbacks or its flush phase) — mailboxes are single-writer.
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::uint32_t lane, util::InlineCallback cb);

  /// Threaded execution: one worker per shard. Defaults to on when the
  /// machine has >1 hardware thread or IDSEVAL_SHARD_THREADS=1 is set;
  /// sequential round-robin otherwise. Both orders are bit-identical.
  void set_threaded(bool threaded);
  bool threaded() const noexcept { return threaded_; }

  /// Advances every shard to `deadline` (inclusive, like
  /// Simulator::run_until). Returns total events executed.
  std::uint64_t run_until(SimTime deadline = SimTime::max());

  std::uint64_t executed() const noexcept;
  std::uint64_t alloc_fallbacks() const noexcept;
  const Stats& stats() const noexcept { return stats_; }

  /// Merges the per-shard registries (shards 1..N-1, in shard order) into
  /// `into`; called once at finalize so per-shard counters land
  /// deterministically. No-op at N=1.
  void merge_registries_into(telemetry::Registry& into);

 private:
  struct Msg {
    SimTime when;
    std::uint64_t key;  ///< (lane << 40) | per-mailbox seq — sort key.
    util::InlineCallback cb;
  };
  struct Mailbox {
    std::vector<Msg> msgs;
    SimTime min_when = SimTime::max();  ///< Over undelivered messages.
    std::uint64_t seq = 0;
  };

  Mailbox& box(std::size_t src, std::size_t dst) noexcept {
    return boxes_[src * sims_.size() + dst];
  }
  SimTime local_min(std::size_t s) const;
  void flush_shard(std::size_t s, SimTime global_min);
  /// Drains shard s's inbound mailboxes into its heap. Barrier-phase
  /// only: every shard must be quiescent (run_windows_* call it from the
  /// coordinating thread before releasing the window).
  void inject_shard(std::size_t s);
  std::uint64_t run_shard_window(std::size_t s, SimTime window_last);
  std::uint64_t run_windows_sequential(SimTime deadline);
  std::uint64_t run_windows_threaded(SimTime deadline);
  void start_workers();
  void stop_workers();
  void worker_loop(std::size_t s);

  ShardPlan plan_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<telemetry::Registry>> registries_;
  std::vector<Mailbox> boxes_;  ///< N*N, row-major [src][dst].
  std::vector<std::vector<Source>> sources_;  ///< Per owning shard.
  std::vector<std::vector<Msg>> inject_scratch_;  ///< Per dst shard.
  SimTime lookahead_ = SimTime::max();
  bool threaded_ = false;
  Stats stats_;

  // Threaded mode: persistent workers (one per shard 1..N-1; the main
  // thread runs shard 0's slice) coordinated by a window epoch. Between
  // windows — while every worker idles at the barrier — the main thread
  // alone computes the global minimum and flushes every shard's remote
  // groups into mailboxes, so mailboxes are only ever written while
  // their readers are quiescent and vice versa. The mutex hand-offs
  // order all cross-thread memory.
  enum class Phase { kIdle, kRun, kExit };
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_go_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  Phase phase_ = Phase::kIdle;
  SimTime phase_bound_;  ///< Last tick of the window (inclusive).
  std::size_t done_ = 0;
};

}  // namespace idseval::netsim
