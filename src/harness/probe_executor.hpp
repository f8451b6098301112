// ProbeExecutor: the one process-wide pool that runs load-probe
// simulations (harness/measure.hpp). A probe is a leaf task: it builds a
// testbed, runs it and stores its result, and never waits on another
// task. The searches that decide which probes to run stay on their
// caller's thread. Each names only the one probe it is blocked on, and
// the caller sleeps in wait_any() until one of those finishes, running
// queued probes itself whenever a slot is free — so evaluations nested
// inside other pools (rank slots, campaign cells) can neither deadlock
// nor oversubscribe the machine: at most concurrency() probes, hence
// testbeds, are live at once across every caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace idseval::harness {

class ProbeExecutor {
 public:
  /// `concurrency` bounds the tasks running at once, counting helping
  /// callers; 0 selects hardware_concurrency (minimum 1).
  explicit ProbeExecutor(std::size_t concurrency = 0);
  ~ProbeExecutor();

  ProbeExecutor(const ProbeExecutor&) = delete;
  ProbeExecutor& operator=(const ProbeExecutor&) = delete;

  /// The process-wide executor, created on first use.
  static ProbeExecutor& shared();

  std::size_t concurrency() const noexcept { return cap_; }

  class Task;
  using TaskRef = std::shared_ptr<Task>;

  /// Queues `fn`, which must not throw. Lower `priority` runs first;
  /// equal priorities run in submission order.
  TaskRef submit(int priority, std::function<void()> fn);
  /// Re-ranks a task that has not started yet (no-op once it has).
  void set_priority(const TaskRef& task, int priority);
  /// Withdraws a task that has not started. True when it will never run.
  bool cancel(const TaskRef& task);
  /// True once the task ran to completion or was withdrawn.
  bool finished(const TaskRef& task);
  /// Blocks until at least one of `tasks` is finished, running queued
  /// tasks on the calling thread while a slot is free. Returns at once
  /// when `tasks` is empty.
  void wait_any(std::span<const TaskRef> tasks);
  /// How many times wait_any() returned with a task finished. Host-side:
  /// it depends on thread timing, so it never enters a telemetry
  /// registry (whose contents are simulated-time only).
  std::uint64_t wakes();
  /// Blocks until `task` is finished; never runs other tasks, so it is
  /// safe from destructors and unwinding paths.
  void wait(const TaskRef& task);

 private:
  /// Index of the next task to run, or npos.
  std::size_t best_queued() const noexcept;
  /// Pops and runs the best queued task with the lock released.
  void run_best(std::unique_lock<std::mutex>& lock);
  bool can_start() const noexcept;
  void worker_loop();

  std::size_t cap_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<TaskRef> queue_;
  std::size_t running_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t wakes_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace idseval::harness
