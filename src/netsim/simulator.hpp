// Discrete-event simulation core. A single Simulator owns virtual time;
// every component (links, hosts, traffic generators, IDS pipeline stages)
// schedules callbacks on it. Events at equal timestamps fire in schedule
// order (a monotonic sequence number breaks ties), which makes whole runs
// bit-reproducible for a given seed — the repeatability the methodology
// requires.
//
// The hot path is allocation-free in steady state: callbacks are
// move-only InlineCallbacks (captures stored in place, no per-event
// std::function heap cell) parked in a recycled slab, and the event
// queue is a 4-ary implicit min-heap of 24-byte (when, seq, slot) keys
// over a reserved vector — heap sifts move small keys, never the
// ~150-byte callback storage, and the four-way fan-out halves the depth
// a flow-scale queue (one pending event per live flow) sifts through.
// Oversized captures take a heap fallback, counted in alloc_fallbacks()
// and the "sim.callback_fallbacks" telemetry counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netsim/sim_time.hpp"
#include "telemetry/registry.hpp"
#include "util/inline_callback.hpp"

namespace idseval::netsim {

class Simulator {
 public:
  using Callback = util::InlineCallback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `when` (>= now, else clamped to now).
  void schedule_at(SimTime when, Callback cb);
  /// Schedules `cb` after a relative delay.
  void schedule_in(SimTime delay, Callback cb);

  /// Lanes give same-tick events a canonical cross-entity order that does
  /// not depend on which queue they were scheduled from: the tie-break key
  /// is (lane, per-simulator sequence), so two events at the same tick on
  /// different lanes compare the same whether they were pushed onto one
  /// serial heap or injected from a cross-shard mailbox after a barrier.
  /// Link deliveries and host-agent reports carry the lane of their stream
  /// (assigned by Network in attach order); plain schedule_at uses lane 0.
  static constexpr std::uint32_t kMaxLane = (1u << 24) - 1;
  void schedule_at_lane(SimTime when, std::uint32_t lane, Callback cb);

  /// Timestamp of the earliest pending event (SimTime::max() when empty).
  SimTime next_event_time() const noexcept {
    return heap_.empty() ? SimTime::max() : heap_.front().when;
  }

  /// Runs events until the queue drains or `deadline` is passed.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline = SimTime::max());

  /// Executes at most one event. Returns false when the queue is empty or
  /// the next event lies beyond `deadline` (time does not advance then).
  bool step(SimTime deadline = SimTime::max());

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Grows the reserved event storage (never shrinks). The queue also
  /// grows on demand; reserving up front just moves the growth out of the
  /// measured window.
  void reserve_events(std::size_t capacity) {
    heap_.reserve(capacity);
    slab_.reserve(capacity);
    free_slots_.reserve(capacity);
  }
  std::size_t event_capacity() const noexcept { return heap_.capacity(); }

  /// Number of scheduled callbacks whose captures exceeded the inline
  /// buffer and fell back to a heap cell. Zero in steady state on the
  /// default profiles; nonzero means a capture outgrew
  /// util::InlineCallback::kInlineBytes and the hot path regressed.
  std::uint64_t alloc_fallbacks() const noexcept { return alloc_fallbacks_; }

  /// Fresh unique ids for packets/flows within this simulation.
  std::uint64_t next_packet_id() noexcept { return ++packet_ids_; }
  std::uint64_t next_flow_id() noexcept { return ++flow_ids_; }

 private:
  /// Heap entry: ordering key plus the callback's slab slot. Small on
  /// purpose — sift-up/down traffic is the queue's dominant cost. The seq
  /// field packs (lane << 40 | counter): comparing seq then orders equal
  /// ticks by lane first, schedule order second.
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Strict order on (when, seq). seq is unique per simulator, so no two
  /// pending events compare equal and the pop order is a total order.
  static bool earlier(const Event& a, const Event& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }
  /// Children of heap index i sit at kArity*i + 1 .. kArity*i + kArity.
  static constexpr std::size_t kArity = 4;
  /// Hole-based sifts: the moving entry is written once, at its final
  /// index; entries on the way shift by one level.
  void sift_up(std::size_t hole, Event ev) noexcept;
  void sift_down(std::size_t hole, Event ev) noexcept;

  SimTime now_;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t packet_ids_ = 0;
  std::uint64_t flow_ids_ = 0;
  std::uint64_t alloc_fallbacks_ = 0;
  telemetry::Counter* tele_fallbacks_ = nullptr;
  std::vector<Event> heap_;  ///< 4-ary min-heap on (when, seq).
  std::vector<Callback> slab_;          ///< Parked callbacks, by slot.
  std::vector<std::uint32_t> free_slots_;  ///< Recycled slab slots.
};

}  // namespace idseval::netsim
