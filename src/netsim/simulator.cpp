#include "netsim/simulator.hpp"

#include <utility>

namespace idseval::netsim {

namespace {
// Enough for a default campaign cell, whose pending events sit in the low
// thousands (an overloaded load probe parks a few thousand sensor
// completions). Flow-scale profiles hold one pending step per live flow,
// about 130k-260k on megaflow, and grow the storage on demand: one
// doubling ladder per run, then steady-state pushes reuse it.
constexpr std::size_t kInitialEventCapacity = 4096;
}  // namespace

Simulator::Simulator()
    : tele_fallbacks_(telemetry::counter_handle(
          telemetry::names::kSimCallbackFallbacks)) {
  heap_.reserve(kInitialEventCapacity);
  slab_.reserve(kInitialEventCapacity);
  free_slots_.reserve(kInitialEventCapacity);
}

void Simulator::schedule_at(SimTime when, Callback cb) {
  schedule_at_lane(when, 0, std::move(cb));
}

void Simulator::schedule_at_lane(SimTime when, std::uint32_t lane,
                                 Callback cb) {
  if (when < now_) when = now_;
  if (cb.on_heap()) {
    ++alloc_fallbacks_;
    telemetry::bump(tele_fallbacks_);
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(cb);
  }
  // 40 bits of schedule counter under 24 bits of lane: ~1.1e12 events per
  // simulator before wraparound, far beyond any profile.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(lane) << 40) | ++seq_;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Event{when, key, slot});
}

void Simulator::sift_up(std::size_t hole, Event ev) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(ev, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

void Simulator::sift_down(std::size_t hole, Event ev) noexcept {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t last = first + kArity < size ? first + kArity : size;
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], ev)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = ev;
}

void Simulator::schedule_in(SimTime delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t ran = 0;
  while (step(deadline)) ++ran;
  // If we stopped because the next event is past the deadline, advance
  // time to the deadline so subsequent scheduling is relative to it.
  if (!heap_.empty() && heap_.front().when > deadline && now_ < deadline) {
    now_ = deadline;
  }
  if (heap_.empty() && now_ < deadline && deadline < SimTime::max()) {
    now_ = deadline;
  }
  return ran;
}

bool Simulator::step(SimTime deadline) {
  if (heap_.empty()) return false;
  if (heap_.front().when > deadline) return false;
  const Event ev = heap_.front();
  const Event tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, tail);
  // Move the callback out and recycle its slot before invoking, so
  // events the callback schedules can reuse it immediately.
  Callback cb = std::move(slab_[ev.slot]);
  free_slots_.push_back(ev.slot);
  now_ = ev.when;
  ++executed_;
  cb();
  return true;
}

}  // namespace idseval::netsim
