#include "campaign/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "campaign/store.hpp"
#include "util/rng.hpp"

namespace idseval::campaign {
namespace {

/// Fast spec: short windows, small enclave, single attack per kind.
CampaignSpec fast_spec() {
  CampaignSpec spec;
  spec.name = "sched-test";
  spec.products = {products::ProductId::kSentryNid,
                   products::ProductId::kFlowHunt};
  spec.profiles = {"rt_cluster"};
  spec.sensitivities = {0.3, 0.7};
  spec.replicates = 2;
  spec.base_seed = 7;
  spec.attacks_per_kind = 1;
  spec.internal_hosts = 4;
  spec.external_hosts = 2;
  spec.warmup_sec = 1.0;
  spec.measure_sec = 3.0;
  return spec;
}

/// Synthetic runner: deterministic in the cell, no simulation.
CellResult fake_runner(const CampaignSpec&, const CampaignCell& cell,
                       harness::RunContext&) {
  CellResult r;
  r.cell = cell;
  r.ok = true;
  r.score_total = static_cast<double>(cell.seed % 1000);
  r.fp_percent_of_benign = cell.sensitivity * 10.0;
  r.fn_percent_of_attacks = (1.0 - cell.sensitivity) * 10.0;
  return r;
}

std::string store_path(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "idseval_scheduler_test";
  std::filesystem::create_directories(dir);
  return (dir / (tag + ".jsonl")).string();
}

TEST(ExpandCellsTest, CanonicalOrderAndDerivedSeeds) {
  const CampaignSpec spec = fast_spec();
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), spec.cell_count());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed, util::derive_seed(spec.base_seed, i));
  }
  // products outer, replicates inner
  EXPECT_EQ(cells[0].product, products::ProductId::kSentryNid);
  EXPECT_EQ(cells[0].replicate, 0u);
  EXPECT_EQ(cells[1].replicate, 1u);
  EXPECT_DOUBLE_EQ(cells[0].sensitivity, 0.3);
  EXPECT_DOUBLE_EQ(cells[2].sensitivity, 0.7);
  EXPECT_EQ(cells[4].product, products::ProductId::kFlowHunt);
  // All seeds distinct.
  std::set<std::uint64_t> seeds;
  for (const auto& cell : cells) seeds.insert(cell.seed);
  EXPECT_EQ(seeds.size(), cells.size());
}

TEST(ExpandCellsTest, SeedsIndependentOfExecutionOrder) {
  // The seed of cell k must not depend on any other cell having run:
  // derive_seed is a pure function of (base, k).
  const CampaignSpec spec = fast_spec();
  const auto cells = expand_cells(spec);
  EXPECT_EQ(cells[5].seed, util::derive_seed(spec.base_seed, 5));
}

TEST(SchedulerTest, RunsAllCellsAndRecordsThem) {
  const CampaignSpec spec = fast_spec();
  ResultStore store(store_path("all_cells"), spec, /*fresh=*/true);
  RunOptions options;
  options.runner = fake_runner;
  options.jobs = 2;
  std::atomic<std::size_t> progress_calls{0};
  options.on_cell = [&](const CellResult&, std::size_t done,
                        std::size_t total) {
    ++progress_calls;
    EXPECT_LE(done, total);
  };
  const RunStats stats = run_campaign(spec, store, options);
  EXPECT_EQ(stats.total_cells, spec.cell_count());
  EXPECT_EQ(stats.executed, spec.cell_count());
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(store.ok_count(), spec.cell_count());
  EXPECT_EQ(progress_calls.load(), spec.cell_count());
}

TEST(SchedulerTest, WorkerCountDoesNotChangeResults) {
  const CampaignSpec spec = fast_spec();
  std::map<std::size_t, CellResult> by_jobs[2];
  const std::size_t jobs[] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ResultStore store(store_path("jobs" + std::to_string(jobs[i])), spec,
                      /*fresh=*/true);
    RunOptions options;
    options.jobs = jobs[i];
    // Real evaluations: this is the determinism acceptance check at
    // unit-test scale.
    run_campaign(spec, store, options);
    by_jobs[i] = store.results();
  }
  ASSERT_EQ(by_jobs[0].size(), by_jobs[1].size());
  for (const auto& [index, a] : by_jobs[0]) {
    const CellResult& b = by_jobs[1].at(index);
    EXPECT_EQ(serialize_cell(a), serialize_cell(b)) << "cell " << index;
  }
}

TEST(SchedulerTest, LoadMetricCellsAreIdenticalAtOneAndFourJobs) {
  // Nested parallelism: every cell's load searches share the
  // process-wide probe executor with the other cells' searches, each
  // waiting caller helping it, and still store the same rows.
  CampaignSpec spec = fast_spec();
  spec.name = "sched-load";
  spec.products = {products::ProductId::kSentryNid};
  spec.sensitivities = {0.5};
  spec.replicates = 2;
  spec.load_metrics = true;
  std::map<std::size_t, CellResult> by_jobs[2];
  const std::size_t jobs[] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ResultStore store(store_path("load_jobs" + std::to_string(jobs[i])),
                      spec, /*fresh=*/true);
    RunOptions options;
    options.jobs = jobs[i];
    run_campaign(spec, store, options);
    by_jobs[i] = store.results();
  }
  ASSERT_EQ(by_jobs[0].size(), spec.cell_count());
  ASSERT_EQ(by_jobs[1].size(), spec.cell_count());
  for (const auto& [index, a] : by_jobs[0]) {
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_GT(a.zero_loss_pps, 0.0);
    EXPECT_EQ(serialize_cell(a), serialize_cell(by_jobs[1].at(index)))
        << "cell " << index;
  }
}

TEST(SchedulerTest, ThrowingCellIsIsolatedNotFatal) {
  const CampaignSpec spec = fast_spec();
  ResultStore store(store_path("failing"), spec, /*fresh=*/true);
  RunOptions options;
  options.jobs = 3;
  options.runner = [](const CampaignSpec& s, const CampaignCell& cell,
                      harness::RunContext& ctx) {
    if (cell.index == 2) throw std::runtime_error("sensor exploded");
    return fake_runner(s, cell, ctx);
  };
  const RunStats stats = run_campaign(spec, store, options);
  EXPECT_EQ(stats.executed, spec.cell_count());
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(store.ok_count(), spec.cell_count() - 1);
  EXPECT_EQ(store.failed_count(), 1u);
  const CellResult& failed = store.results().at(2);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error, "sensor exploded");
}

TEST(SchedulerTest, ResumeSkipsCompletedAndRetriesFailed) {
  const CampaignSpec spec = fast_spec();
  const std::string path = store_path("resume");
  {
    ResultStore store(path, spec, /*fresh=*/true);
    RunOptions options;
    options.runner = [](const CampaignSpec& s, const CampaignCell& cell,
                        harness::RunContext& ctx) {
      if (cell.index >= 4) throw std::runtime_error("killed");
      return fake_runner(s, cell, ctx);
    };
    const RunStats stats = run_campaign(spec, store, options);
    EXPECT_EQ(stats.failed, spec.cell_count() - 4);
  }
  // Relaunch on the same spec: the 4 ok cells are skipped, the failed
  // ones re-run and now succeed.
  ResultStore store(path, spec, /*fresh=*/false);
  std::atomic<std::size_t> executed{0};
  RunOptions options;
  options.runner = [&](const CampaignSpec& s, const CampaignCell& cell,
                       harness::RunContext& ctx) {
    ++executed;
    EXPECT_GE(cell.index, 4u);  // completed cells must not rerun
    return fake_runner(s, cell, ctx);
  };
  const RunStats stats = run_campaign(spec, store, options);
  EXPECT_EQ(stats.skipped, 4u);
  EXPECT_EQ(stats.executed, spec.cell_count() - 4);
  EXPECT_EQ(executed.load(), spec.cell_count() - 4);
  EXPECT_EQ(store.ok_count(), spec.cell_count());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SchedulerTest, BackgroundAndSyncTraceWritersProduceIdenticalFiles) {
  const CampaignSpec spec = fast_spec();
  std::string contents[2];
  const bool background[] = {false, true};
  for (int i = 0; i < 2; ++i) {
    const std::string tag = background[i] ? "trace_bg" : "trace_sync";
    const std::string trace_path = store_path(tag + "_trace");
    {
      ResultStore store(store_path(tag), spec, /*fresh=*/true);
      telemetry::TraceSink trace(trace_path,
                                 telemetry::TraceSink::kDefaultCapacity,
                                 background[i]);
      RunOptions options;
      options.runner = fake_runner;
      // Single worker: cell events enqueue in index order, so the whole
      // file (not just a sorted view of it) must match across modes.
      options.jobs = 1;
      options.trace = &trace;
      run_campaign(spec, store, options);
      trace.close();
      EXPECT_EQ(trace.dropped(), 0u);
      EXPECT_EQ(trace.emitted(), spec.cell_count());
    }
    std::ifstream in(trace_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    contents[i] = text.str();
  }
  EXPECT_FALSE(contents[0].empty());
  EXPECT_EQ(contents[0], contents[1]);
}

TEST(SchedulerTest, RunCellProducesPlausibleScores) {
  CampaignSpec spec = fast_spec();
  const auto cells = expand_cells(spec);
  harness::RunContext ctx;
  const CellResult result = run_cell(spec, cells[0], ctx);
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.score_total, 0.0);
  EXPECT_DOUBLE_EQ(result.score_total,
                   result.score_logistical + result.score_architectural +
                       result.score_performance);
  EXPECT_GE(result.fp_percent_of_benign, 0.0);
  EXPECT_LE(result.fp_percent_of_benign, 100.0);
  EXPECT_GE(result.fn_percent_of_attacks, 0.0);
  EXPECT_LE(result.fn_percent_of_attacks, 100.0);
  EXPECT_GT(result.offered_pps, 0.0);
  // load_metrics off => load columns stay zero
  EXPECT_DOUBLE_EQ(result.zero_loss_pps, 0.0);
  EXPECT_DOUBLE_EQ(result.system_throughput_pps, 0.0);
}

}  // namespace
}  // namespace idseval::campaign
