#include "netsim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "util/rng.hpp"

namespace idseval::netsim {

namespace {

// Salt for the host -> shard topology hash; any fixed constant works, it
// just decorrelates the partition from other uses of the address bits.
constexpr std::uint64_t kShardSalt = 0x5ca1ab1e0ddba11ULL;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool threads_forced() {
  const char* env = std::getenv("IDSEVAL_SHARD_THREADS");
  return env != nullptr && env[0] == '1';
}

}  // namespace

std::size_t ShardPlan::shard_of(Ipv4 addr) const noexcept {
  if (shards_ == 1) return 0;
  const std::uint64_t h = util::derive_seed(kShardSalt, addr.value());
  return 1 + static_cast<std::size_t>(h % (shards_ - 1));
}

ShardedSimulator::ShardedSimulator(const ShardPlan& plan) : plan_(plan) {
  const std::size_t n = plan.shards();
  sims_.reserve(n);
  registries_.resize(n);
  for (std::size_t i = 1; i < n; ++i) {
    registries_[i] = std::make_unique<telemetry::Registry>();
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Construct each shard's Simulator under its own registry so its
    // telemetry handles (sim.callback_fallbacks) bind shard-locally;
    // shard 0 binds the ambient registry of the constructing thread.
    if (registries_[i]) {
      telemetry::ScopedRegistry scope(registries_[i].get());
      sims_.push_back(std::make_unique<Simulator>());
    } else {
      sims_.push_back(std::make_unique<Simulator>());
    }
  }
  boxes_.resize(n * n);
  sources_.resize(n);
  inject_scratch_.resize(n);
  stats_.shard.resize(n);
  threaded_ =
      n > 1 && (std::thread::hardware_concurrency() > 1 || threads_forced());
}

ShardedSimulator::~ShardedSimulator() { stop_workers(); }

void ShardedSimulator::add_channel(std::size_t /*src*/, std::size_t /*dst*/,
                                   SimTime min_delay) {
  if (min_delay <= SimTime::zero()) min_delay = SimTime::from_ns(1);
  lookahead_ = std::min(lookahead_, min_delay);
}

void ShardedSimulator::add_source(std::size_t s, Source source) {
  sources_[s].push_back(std::move(source));
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, SimTime when,
                            std::uint32_t lane, util::InlineCallback cb) {
  Mailbox& b = box(src, dst);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(lane) << 40) | ++b.seq;
  b.min_when = std::min(b.min_when, when);
  b.msgs.push_back(Msg{when, key, std::move(cb)});
}

void ShardedSimulator::set_threaded(bool threaded) {
  if (!threaded) stop_workers();
  threaded_ = threaded && shards() > 1;
}

SimTime ShardedSimulator::local_min(std::size_t s) const {
  SimTime m = sims_[s]->next_event_time();
  for (const Source& source : sources_[s]) {
    m = std::min(m, source.pending_min());
  }
  const std::size_t n = sims_.size();
  for (std::size_t src = 0; src < n; ++src) {
    m = std::min(m, boxes_[src * n + s].min_when);
  }
  return m;
}

void ShardedSimulator::flush_shard(std::size_t s, SimTime global_min) {
  for (const Source& source : sources_[s]) source.flush(global_min);
}

void ShardedSimulator::inject_shard(std::size_t s) {
  // Inject inbound mailboxes: concatenate in source-shard order, then a
  // stable sort on (when, lane, seq) — the canonical merged order a
  // single serial heap would have produced for these events. Runs only
  // at barriers (no shard is executing), so draining a mailbox never
  // races its writer; deferring a post made during the previous window
  // to this barrier cannot reorder anything, because a lane has exactly
  // one writing shard and the heap orders distinct lanes by lane key
  // regardless of insertion order.
  const std::size_t n = sims_.size();
  std::vector<Msg>& scratch = inject_scratch_[s];
  scratch.clear();
  for (std::size_t src = 0; src < n; ++src) {
    Mailbox& b = box(src, s);
    if (b.msgs.empty()) continue;
    for (Msg& m : b.msgs) scratch.push_back(std::move(m));
    b.msgs.clear();
    b.min_when = SimTime::max();
  }
  if (!scratch.empty()) {
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const Msg& a, const Msg& b) {
                       if (a.when != b.when) return a.when < b.when;
                       return a.key < b.key;
                     });
    stats_.shard[s].messages += scratch.size();
    for (Msg& m : scratch) {
      sims_[s]->schedule_at_lane(
          m.when, static_cast<std::uint32_t>(m.key >> 40), std::move(m.cb));
    }
    scratch.clear();
  }
}

std::uint64_t ShardedSimulator::run_shard_window(std::size_t s,
                                                 SimTime window_last) {
  return sims_[s]->run_until(window_last);
}

std::uint64_t ShardedSimulator::run_windows_sequential(SimTime deadline) {
  std::uint64_t ran = 0;
  for (;;) {
    SimTime gm = SimTime::max();
    for (std::size_t s = 0; s < sims_.size(); ++s) {
      gm = std::min(gm, local_min(s));
    }
    if (gm > deadline) break;
    SimTime window_last =
        gm > SimTime::max() - lookahead_
            ? SimTime::max()
            : gm + lookahead_ - SimTime::from_ns(1);
    window_last = std::min(window_last, deadline);
    for (std::size_t s = 0; s < sims_.size(); ++s) flush_shard(s, gm);
    for (std::size_t s = 0; s < sims_.size(); ++s) inject_shard(s);
    for (std::size_t s = 0; s < sims_.size(); ++s) {
      if (telemetry::Registry* reg = registry(s)) {
        telemetry::ScopedRegistry scope(reg);
        ran += run_shard_window(s, window_last);
      } else {
        ran += run_shard_window(s, window_last);
      }
    }
    ++stats_.windows;
  }
  return ran;
}

std::uint64_t ShardedSimulator::run_windows_threaded(SimTime deadline) {
  start_workers();
  const std::uint64_t start_executed = executed();
  for (;;) {
    SimTime gm = SimTime::max();
    for (std::size_t s = 0; s < sims_.size(); ++s) {
      gm = std::min(gm, local_min(s));
    }
    if (gm > deadline) break;
    SimTime window_last =
        gm > SimTime::max() - lookahead_
            ? SimTime::max()
            : gm + lookahead_ - SimTime::from_ns(1);
    window_last = std::min(window_last, deadline);
    // Mailbox writes (flush) and reads (inject) both happen here, while
    // every worker idles at the barrier; the epoch hand-off below
    // publishes the injected heaps to the workers.
    for (std::size_t s = 0; s < sims_.size(); ++s) flush_shard(s, gm);
    for (std::size_t s = 0; s < sims_.size(); ++s) inject_shard(s);

    const auto window_t0 = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lk(mu_);
      phase_ = Phase::kRun;
      phase_bound_ = window_last;
      done_ = 0;
      ++epoch_;
    }
    cv_go_.notify_all();
    const auto main_t0 = std::chrono::steady_clock::now();
    run_shard_window(0, window_last);
    const double main_work = seconds_since(main_t0);
    stats_.shard[0].work_sec += main_work;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] { return done_ == workers_.size(); });
    }
    stats_.shard[0].barrier_stall_sec +=
        std::max(0.0, seconds_since(window_t0) - main_work);
    ++stats_.windows;
  }
  return executed() - start_executed;
}

std::uint64_t ShardedSimulator::run_until(SimTime deadline) {
  if (sims_.size() == 1) {
    // The exact legacy single-queue path: no windows, no barriers, no
    // mailboxes — just the serial heap loop.
    return sims_[0]->run_until(deadline);
  }
  const std::uint64_t ran = threaded_ ? run_windows_threaded(deadline)
                                      : run_windows_sequential(deadline);
  // No events <= deadline remain anywhere; align every shard's clock so
  // barrier-time actions (stat resets, phase boundaries) see `deadline`.
  for (auto& sim : sims_) sim->run_until(deadline);
  return ran;
}

std::uint64_t ShardedSimulator::executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->executed();
  return total;
}

std::uint64_t ShardedSimulator::alloc_fallbacks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->alloc_fallbacks();
  return total;
}

void ShardedSimulator::merge_registries_into(telemetry::Registry& into) {
  for (std::size_t i = 1; i < sims_.size(); ++i) {
    into.merge_from(*registries_[i]);
  }
}

void ShardedSimulator::start_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(sims_.size() - 1);
  for (std::size_t s = 1; s < sims_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ShardedSimulator::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    phase_ = Phase::kExit;
    ++epoch_;
  }
  cv_go_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  phase_ = Phase::kIdle;
}

void ShardedSimulator::worker_loop(std::size_t s) {
  std::uint64_t seen = 0;
  for (;;) {
    Phase phase;
    SimTime bound;
    {
      std::unique_lock<std::mutex> lk(mu_);
      const auto wait_t0 = std::chrono::steady_clock::now();
      cv_go_.wait(lk, [&] { return epoch_ != seen; });
      stats_.shard[s].barrier_stall_sec += seconds_since(wait_t0);
      seen = epoch_;
      phase = phase_;
      bound = phase_bound_;
    }
    if (phase == Phase::kExit) return;
    const auto work_t0 = std::chrono::steady_clock::now();
    {
      telemetry::ScopedRegistry scope(registries_[s].get());
      run_shard_window(s, bound);
    }
    stats_.shard[s].work_sec += seconds_since(work_t0);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_;
    }
    cv_done_.notify_one();
  }
}

}  // namespace idseval::netsim
