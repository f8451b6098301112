// ProbeExecutor: priority order, withdrawal, the concurrency cap across
// workers and helping callers, and nested callers that wait on it.
#include "harness/probe_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"

namespace idseval::harness {
namespace {

using TaskRef = ProbeExecutor::TaskRef;

void wait_all(ProbeExecutor& executor, std::vector<TaskRef> tasks) {
  while (!tasks.empty()) {
    executor.wait_any(tasks);
    std::erase_if(tasks,
                  [&](const TaskRef& t) { return executor.finished(t); });
  }
}

TEST(ProbeExecutorTest, RunsLowerPriorityFirstThenSubmissionOrder) {
  ProbeExecutor executor(1);
  // Park the only slot so the rest queue up behind it.
  std::atomic<bool> release{false};
  const TaskRef gate = executor.submit(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::mutex mutex;
  std::vector<int> order;
  std::vector<TaskRef> tasks = {gate};
  for (const int priority : {5, 1, 3, 1}) {
    tasks.push_back(executor.submit(priority, [&, priority] {
      std::scoped_lock lock(mutex);
      order.push_back(priority * 10 + static_cast<int>(order.size()));
    }));
  }
  executor.set_priority(tasks[1], 0);  // 5 -> 0: now first.
  release = true;
  wait_all(executor, tasks);
  EXPECT_EQ(order, (std::vector<int>{50, 11, 12, 33}));
}

TEST(ProbeExecutorTest, CancelWithdrawsOnlyQueuedTasks) {
  ProbeExecutor executor(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  const TaskRef running = executor.submit(0, [&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  const auto token = std::make_shared<int>(0);
  const TaskRef queued = executor.submit(1, [&ran, token] { ++ran; });
  while (!started.load()) std::this_thread::yield();
  EXPECT_FALSE(executor.cancel(running));
  EXPECT_TRUE(executor.cancel(queued));
  EXPECT_TRUE(executor.finished(queued));
  // A withdrawn task drops its captures at once: a capture that owns
  // the task's handle would otherwise keep both alive forever.
  EXPECT_EQ(token.use_count(), 1);
  release = true;
  executor.wait(running);
  EXPECT_TRUE(executor.finished(running));
  EXPECT_EQ(ran.load(), 0);
}

TEST(ProbeExecutorTest, NeverRunsMoreThanItsConcurrencyWithHelpers) {
  ProbeExecutor executor(2);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  const auto body = [&] {
    const int now = ++live;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --live;
  };
  // Several callers submit and wait (helping) at once, like nested
  // evaluations inside a campaign's own pool.
  std::vector<std::jthread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      std::vector<TaskRef> tasks;
      for (int i = 0; i < 8; ++i) tasks.push_back(executor.submit(i, body));
      wait_all(executor, tasks);
    });
  }
  callers.clear();
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ProbeExecutorTest, HelpingCallerLendsNoAmbientRegistry) {
  ProbeExecutor executor(1);
  std::atomic<bool> release{false};
  const TaskRef gate = executor.submit(0, [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  telemetry::Registry ambient;
  telemetry::ScopedRegistry scope(&ambient);
  std::atomic<bool> saw_registry{false};
  const TaskRef probe = executor.submit(1, [&saw_registry] {
    saw_registry = telemetry::current() != nullptr;
  });
  release = true;
  wait_all(executor, {gate, probe});
  EXPECT_FALSE(saw_registry.load());
  EXPECT_EQ(telemetry::current(), &ambient);
}

TEST(ProbeExecutorTest, WaitAnyReturnsAtOnceForNoTasks) {
  ProbeExecutor executor(1);
  executor.wait_any({});
  SUCCEED();
}

TEST(ProbeExecutorTest, SharedExecutorUsesHardwareConcurrency) {
  const std::size_t hw =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(ProbeExecutor::shared().concurrency(), hw);
}

}  // namespace
}  // namespace idseval::harness
