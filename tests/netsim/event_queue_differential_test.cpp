// Differential test of the simulator's event queue against a reference
// queue that keeps pending events sorted by (when, lane << 40 | counter)
// in a std::set. Both queues run the same random program: external bursts
// with many same-tick events on random lanes, callbacks that schedule
// further events (at `now`, in the past, on the same tick grid, or far
// ahead), and a mix of step/run_until calls with deadlines placed on,
// just before, and between pending timestamps. Every executed event, the
// clock, the pending count and the next event time must agree after
// every call.
#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "util/flow_table.hpp"
#include "util/rng.hpp"

namespace idseval::netsim {
namespace {

/// Which scheduling entry point an event goes through.
enum class Via : std::uint8_t { kAt, kIn, kLane };

struct Fired {
  std::uint64_t id;
  std::int64_t at_ns;
  bool operator==(const Fired&) const = default;
};

constexpr std::uint32_t kLanes[] = {0, 1, 2, 3, 7, 1000, Simulator::kMaxLane};

/// The shared random program. What event `id` does when it runs depends
/// on (seed, id) alone, so both queues see the same program as long as
/// they hand out ids in the same order.
template <class Self>
class Program {
 public:
  Program(std::uint64_t seed, std::uint64_t id_limit)
      : seed_(seed), id_limit_(id_limit) {}

  /// Schedules one new event `delay_ns` after now (negative: in the past).
  void add(std::int64_t delay_ns, std::uint32_t lane, Via via) {
    self().push(delay_ns, lane, via, next_id_++);
  }

  /// Same-tick-heavy burst: times on a 100 ns grid, random lanes and
  /// entry points.
  void burst(util::Rng& rng, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto tick = static_cast<std::int64_t>(rng.uniform_u64(0, 40));
      add(tick * 100, kLanes[rng.index(std::size(kLanes))],
          static_cast<Via>(rng.index(3)));
    }
  }

  const std::vector<Fired>& log() const noexcept { return log_; }

 protected:
  void fire(std::uint64_t id) {
    log_.push_back(Fired{id, self().now().ns()});
    if (id >= id_limit_) return;
    util::Rng rng(util::mix64(seed_ ^ (id * 0x9e3779b97f4a7c15ULL)));
    // Mean fan-out just under one keeps the queue deep but finite.
    const double u = rng.uniform();
    const int children = u < 0.35 ? 0 : u < 0.75 ? 1 : u < 0.95 ? 2 : 3;
    for (int c = 0; c < children; ++c) {
      const double kind = rng.uniform();
      std::int64_t delay = 0;  // at now
      if (kind < 0.05) {
        delay = -static_cast<std::int64_t>(rng.uniform_u64(1, 1000));
      } else if (kind < 0.30) {
        delay = 0;
      } else if (kind < 0.75) {
        delay = static_cast<std::int64_t>(rng.uniform_u64(1, 4)) * 100;
      } else {
        delay = static_cast<std::int64_t>(rng.uniform_u64(1, 1'000'000));
      }
      add(delay, kLanes[rng.index(std::size(kLanes))],
          static_cast<Via>(rng.index(3)));
    }
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }

  std::uint64_t seed_;
  std::uint64_t id_limit_;
  std::uint64_t next_id_ = 0;
  std::vector<Fired> log_;
};

class SimQueue : public Program<SimQueue> {
 public:
  using Program::Program;

  void push(std::int64_t delay_ns, std::uint32_t lane, Via via,
            std::uint64_t id) {
    auto cb = [this, id] { fire(id); };
    const SimTime when = SimTime::from_ns(sim_.now().ns() + delay_ns);
    switch (via) {
      case Via::kAt:
        sim_.schedule_at(when, cb);
        break;
      case Via::kIn:
        sim_.schedule_in(SimTime::from_ns(delay_ns), cb);
        break;
      case Via::kLane:
        sim_.schedule_at_lane(when, lane, cb);
        break;
    }
  }

  SimTime now() const noexcept { return sim_.now(); }
  Simulator& sim() noexcept { return sim_; }

 private:
  Simulator sim_;
};

/// Reference queue: a sorted set of (when, lane << 40 | counter, id),
/// with the documented step/run_until contract written out plainly.
class OracleQueue : public Program<OracleQueue> {
 public:
  using Program::Program;

  void push(std::int64_t delay_ns, std::uint32_t lane, Via via,
            std::uint64_t id) {
    std::int64_t when = now_.ns() + delay_ns;
    if (when < now_.ns()) when = now_.ns();
    const std::uint64_t lane_bits = via == Via::kLane ? lane : 0;
    pending_.emplace(when, (lane_bits << 40) | ++counter_, id);
  }

  SimTime now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }
  SimTime next_event_time() const noexcept {
    return pending_.empty() ? SimTime::max()
                            : SimTime::from_ns(std::get<0>(*pending_.begin()));
  }

  bool step(SimTime deadline) {
    if (pending_.empty() || next_event_time() > deadline) return false;
    const auto [when, key, id] = *pending_.begin();
    pending_.erase(pending_.begin());
    now_ = SimTime::from_ns(when);
    ++executed_;
    fire(id);
    return true;
  }

  std::uint64_t run_until(SimTime deadline) {
    std::uint64_t ran = 0;
    while (step(deadline)) ++ran;
    if (now_ < deadline && (pending_.empty() ? deadline < SimTime::max()
                                             : next_event_time() > deadline)) {
      now_ = deadline;
    }
    return ran;
  }

 private:
  SimTime now_;
  std::uint64_t counter_ = 0;
  std::uint64_t executed_ = 0;
  std::set<std::tuple<std::int64_t, std::uint64_t, std::uint64_t>> pending_;
};

/// Compares the logs from `checked` on (earlier entries already matched)
/// and the queue state; advances `checked`.
void expect_same_state(SimQueue& real, const OracleQueue& oracle,
                       const char* where, std::size_t& checked) {
  const auto& a = real.log();
  const auto& b = oracle.log();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = checked; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << where << ": event #" << i << " ran id "
                          << a[i].id << " at " << a[i].at_ns
                          << " ns, oracle ran id " << b[i].id << " at "
                          << b[i].at_ns << " ns";
  }
  ASSERT_EQ(real.now(), oracle.now()) << where;
  ASSERT_EQ(real.sim().pending(), oracle.pending()) << where;
  ASSERT_EQ(real.sim().empty(), oracle.pending() == 0) << where;
  ASSERT_EQ(real.sim().executed(), oracle.executed()) << where;
  ASSERT_EQ(real.sim().next_event_time(), oracle.next_event_time()) << where;
  checked = a.size();
}

/// A deadline that lands exactly on, just before, or between pending
/// events, or is unbounded.
SimTime pick_deadline(util::Rng& rng, const OracleQueue& oracle) {
  const SimTime next = oracle.next_event_time();
  const double u = rng.uniform();
  if (u < 0.15 || next == SimTime::max()) return SimTime::max();
  if (u < 0.35) return next;
  if (u < 0.45) return SimTime::from_ns(next.ns() - 1);
  return SimTime::from_ns(oracle.now().ns() +
                          static_cast<std::int64_t>(rng.uniform_u64(0, 3000)));
}

void run_differential(std::uint64_t seed, std::size_t rounds,
                      std::uint64_t id_limit) {
  SimQueue real(seed, id_limit);
  OracleQueue oracle(seed, id_limit);
  util::Rng ctl(seed);
  std::size_t peak_pending = 0;
  std::size_t checked = 0;
  const auto check = [&](const char* where) {
    expect_same_state(real, oracle, where, checked);
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t count = ctl.uniform_u64(0, 1500);
    util::Rng burst_rng(util::mix64(seed + round));
    util::Rng burst_copy = burst_rng;
    real.burst(burst_rng, count);
    oracle.burst(burst_copy, count);
    ASSERT_NO_FATAL_FAILURE(check("after burst"));
    peak_pending = std::max(peak_pending, oracle.pending());

    const double action = ctl.uniform();
    if (action < 0.5) {
      const std::size_t steps = ctl.uniform_u64(1, 3000);
      for (std::size_t s = 0; s < steps; ++s) {
        const SimTime deadline = pick_deadline(ctl, oracle);
        const bool ran_real = real.sim().step(deadline);
        const bool ran_oracle = oracle.step(deadline);
        ASSERT_EQ(ran_real, ran_oracle) << "step, round " << round;
        ASSERT_NO_FATAL_FAILURE(check("step"));
        peak_pending = std::max(peak_pending, oracle.pending());
      }
    } else {
      const SimTime deadline =
          action < 0.97 ? pick_deadline(ctl, oracle) : SimTime::max();
      const std::uint64_t ran_real = real.sim().run_until(deadline);
      const std::uint64_t ran_oracle = oracle.run_until(deadline);
      ASSERT_EQ(ran_real, ran_oracle) << "run_until, round " << round;
      ASSERT_NO_FATAL_FAILURE(check("run_until"));
    }
  }
  // Drain whatever is left.
  EXPECT_EQ(real.sim().run_until(), oracle.run_until(SimTime::max()));
  ASSERT_NO_FATAL_FAILURE(check("drain"));
  EXPECT_TRUE(real.sim().empty());
  // The schedule must have built a heap several 4-ary levels deep.
  EXPECT_GT(peak_pending, 1000u) << "seed " << seed;
}

TEST(EventQueueDifferential, RandomSchedulesMatchSortedOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(run_differential(seed, 60, 40'000));
  }
}

TEST(EventQueueDifferential, LongRunWithCallbackFanOut) {
  ASSERT_NO_FATAL_FAILURE(run_differential(0xfeedULL, 400, 250'000));
}

TEST(EventQueueDifferential, OneTickOrdersByLaneThenScheduleOrder) {
  Simulator sim;
  util::Rng rng(99);
  struct Key {
    std::uint64_t lane;
    std::uint64_t counter;
    bool operator<(const Key& o) const {
      return std::tie(lane, counter) < std::tie(o.lane, o.counter);
    }
  };
  std::vector<Key> scheduled;
  std::vector<std::size_t> order;
  const SimTime tick = SimTime::from_us(3);
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::uint32_t lane = kLanes[rng.index(std::size(kLanes))];
    scheduled.push_back(Key{lane, i});
    sim.schedule_at_lane(tick, lane, [&order, i] { order.push_back(i); });
  }
  std::vector<Key> expected = scheduled;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sim.run_until(), 5000u);
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], expected[i].counter) << "position " << i;
  }
  EXPECT_EQ(sim.now(), tick);
}

}  // namespace
}  // namespace idseval::netsim
