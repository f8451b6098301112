#include "harness/probe_executor.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/registry.hpp"

namespace idseval::harness {

class ProbeExecutor::Task {
 public:
  enum class State : std::uint8_t { kQueued, kRunning, kDone, kWithdrawn };

  Task(int priority, std::uint64_t seq, std::function<void()> fn)
      : priority(priority), seq(seq), fn(std::move(fn)) {}

  bool before(const Task& other) const noexcept {
    return priority != other.priority ? priority < other.priority
                                      : seq < other.seq;
  }

  int priority;
  std::uint64_t seq;
  std::function<void()> fn;
  State state = State::kQueued;
};

ProbeExecutor::ProbeExecutor(std::size_t concurrency)
    : cap_(concurrency != 0
               ? concurrency
               : std::max<std::size_t>(1,
                                       std::thread::hardware_concurrency())) {
  workers_.reserve(cap_);
  for (std::size_t i = 0; i < cap_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ProbeExecutor::~ProbeExecutor() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  changed_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ProbeExecutor& ProbeExecutor::shared() {
  static ProbeExecutor executor;
  return executor;
}

ProbeExecutor::TaskRef ProbeExecutor::submit(int priority,
                                             std::function<void()> fn) {
  TaskRef task;
  {
    std::scoped_lock lock(mutex_);
    task = std::make_shared<Task>(priority, next_seq_++, std::move(fn));
    queue_.push_back(task);
  }
  changed_.notify_all();
  return task;
}

void ProbeExecutor::set_priority(const TaskRef& task, int priority) {
  std::scoped_lock lock(mutex_);
  if (task->state == Task::State::kQueued) task->priority = priority;
}

bool ProbeExecutor::cancel(const TaskRef& task) {
  std::function<void()> captures;  // Destroyed after the lock is released.
  {
    std::scoped_lock lock(mutex_);
    if (task->state != Task::State::kQueued) {
      return task->state == Task::State::kWithdrawn;
    }
    task->state = Task::State::kWithdrawn;
    captures.swap(task->fn);
    std::erase(queue_, task);
  }
  changed_.notify_all();
  return true;
}

bool ProbeExecutor::finished(const TaskRef& task) {
  std::scoped_lock lock(mutex_);
  return task->state == Task::State::kDone ||
         task->state == Task::State::kWithdrawn;
}

std::size_t ProbeExecutor::best_queued() const noexcept {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (best == std::numeric_limits<std::size_t>::max() ||
        queue_[i]->before(*queue_[best])) {
      best = i;
    }
  }
  return best;
}

bool ProbeExecutor::can_start() const noexcept {
  return !queue_.empty() && running_ < cap_;
}

void ProbeExecutor::run_best(std::unique_lock<std::mutex>& lock) {
  const std::size_t i = best_queued();
  TaskRef task = std::move(queue_[i]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  task->state = Task::State::kRunning;
  ++running_;
  lock.unlock();
  {
    // A helping caller's ambient registry must not capture the task's
    // recording: tasks start with none, like on a worker.
    telemetry::ScopedRegistry no_ambient(nullptr);
    task->fn();
  }
  // Drop the captures (they may own the task's own handle) before the
  // task is reported done.
  task->fn = nullptr;
  lock.lock();
  task->state = Task::State::kDone;
  --running_;
  changed_.notify_all();
}

void ProbeExecutor::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    changed_.wait(lock, [this] { return stop_ || can_start(); });
    if (stop_) return;
    run_best(lock);
  }
}

void ProbeExecutor::wait_any(std::span<const TaskRef> tasks) {
  if (tasks.empty()) return;
  const auto any_finished = [&tasks] {
    return std::any_of(tasks.begin(), tasks.end(), [](const TaskRef& t) {
      return t->state == Task::State::kDone ||
             t->state == Task::State::kWithdrawn;
    });
  };
  std::unique_lock lock(mutex_);
  for (;;) {
    if (any_finished()) {
      ++wakes_;
      return;
    }
    // Help rather than idle: a free slot means no worker has claimed
    // the queued work yet.
    if (can_start()) {
      run_best(lock);
      continue;
    }
    changed_.wait(lock, [&] { return any_finished() || can_start(); });
  }
}

std::uint64_t ProbeExecutor::wakes() {
  std::scoped_lock lock(mutex_);
  return wakes_;
}

void ProbeExecutor::wait(const TaskRef& task) {
  std::unique_lock lock(mutex_);
  changed_.wait(lock, [&task] {
    return task->state == Task::State::kDone ||
           task->state == Task::State::kWithdrawn;
  });
}

}  // namespace idseval::harness
