// idseval_bench: the repository's performance benchmark.
//
//   idseval_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//       One run of one workload in this process. Prints a summary, a
//       `detail {...}` line, and as the last line a JSON object with
//       correct / attempted / failed / metrics: the end-to-end metrics of
//       BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
//
//   idseval_bench [--runs N] [--sets N] [--seed N] [--seconds S]
//                 [--out FILE] [--compare FILE]
//       The suite (the default): every workload, N runs each, one child
//       process at a time, then one traced run per workload. Prints each
//       end-to-end metric's median and quartiles and writes JSON. With
//       --compare, exits 1 when a median regressed past its bound.
//
//   idseval_bench --ab-report BASE.jsonl CHANGE.jsonl
//       Pairs the result lines of two builds (line i of each is pair i)
//       and applies the claim rule per end-to-end metric.
//
//   idseval_bench --defaults
//       Prints BENCHMARK.json's workloads, comma-separated, and its
//       run_seconds, for scripts.
//
// Metric names, units, directions and bounds come from BENCHMARK.json in
// the working directory, which must be the repository root.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "results/doc.hpp"
#include "workloads.hpp"

extern char** environ;

namespace idseval::bench {
namespace {

using Clock = std::chrono::steady_clock;
using results::Doc;

constexpr std::uint64_t kDefaultSeed = 42;
constexpr int kSetupWarmups = 10;
constexpr int kSetupWarmupsPerCpu = 3;
constexpr int kSetupsPerCpu = 7;
constexpr const char* kScratchDir = ".bench_build/perf/scratch";
constexpr const char* kDefaultOut = ".bench_build/perf/idseval_bench.json";

// --- BENCHMARK.json -------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  Better better = Better::kLower;
  double bound = 0.0;  ///< End-to-end metrics only.
};

struct BenchDef {
  int run_seconds = 10;
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const Doc& member(const Doc& doc, std::string_view key) {
  const Doc* found = doc.find(key);
  if (found == nullptr) {
    throw std::runtime_error("missing key: " + std::string(key));
  }
  return *found;
}

BenchDef load_bench_def() {
  const Doc doc = results::parse_json(read_file("BENCHMARK.json"));
  BenchDef def;
  def.run_seconds = static_cast<int>(member(doc, "run_seconds").as_i64());
  for (const Doc& w : member(doc, "workloads").elements()) {
    def.workloads.push_back(member(w, "name").as_string());
  }
  const auto metrics = [](const Doc& list, bool bounded) {
    std::vector<MetricDef> out;
    for (const Doc& m : list.elements()) {
      MetricDef d;
      d.name = member(m, "name").as_string();
      d.unit = member(m, "unit").as_string();
      d.better = parse_better(member(m, "better").as_string());
      if (bounded) d.bound = member(m, "bound").as_double();
      out.push_back(std::move(d));
    }
    return out;
  };
  def.end_to_end = metrics(member(doc, "end_to_end"), true);
  def.per_layer = metrics(member(doc, "per_layer"), false);
  for (const std::string& w : def.workloads) {
    const auto& known = workload_names();
    if (std::find(known.begin(), known.end(), w) == known.end()) {
      throw std::runtime_error("BENCHMARK.json names unknown workload " + w);
    }
  }
  return def;
}

// --- machine stamp --------------------------------------------------------------

constexpr bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

constexpr bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Doc machine_stamp() {
  Doc d = Doc::object();
  d.set("nproc", static_cast<long>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .set("hardware_concurrency",
           static_cast<unsigned>(std::thread::hardware_concurrency()))
      .set("cpu", cpu_model())
#if defined(__clang__)
      .set("compiler", "clang " __clang_version__)
#elif defined(__GNUC__)
      .set("compiler", "gcc " __VERSION__)
#else
      .set("compiler", "unknown")
#endif
      .set("build_type", IDSEVAL_BENCH_BUILD_TYPE)
#if defined(NDEBUG)
      .set("ndebug", true)
#else
      .set("ndebug", false)
#endif
      .set("optimized", optimized_build())
      .set("sanitized", sanitized_build());
  return d;
}

bool comparable(const Doc& stamp) {
  return member(stamp, "optimized").as_bool() &&
         !member(stamp, "sanitized").as_bool();
}

// --- one run --------------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median_of(std::vector<double> v) { return summarize(std::move(v)).median; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct RunOutcome {
  Metrics metrics;   ///< Every metric computed, declared or not.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;  ///< First few, for the log.
};

/// Set-up time: the median of a few constructions on each CPU the process
/// may run on, pinned there one CPU at a time, and of those medians the
/// fastest. On a shared 4-vCPU VM one vCPU ran the same construction 1.6x
/// slower than another for minutes at a time, and a short unpinned burst
/// stays on whichever vCPU the process started on, so repeated runs read
/// one of two values. The set-ups run on the process's fresh heap, as a
/// command-line run builds its testbed; timed between the loop's
/// iterations instead, one seed's median over five runs moved by 58% from
/// one set of runs to the next. The first constructions take up to 1.6x
/// longer (cold caches) and are not timed.
double measure_setup(Workload& workload) {
  for (int i = 0; i < kSetupWarmups; ++i) workload.setup();
  const auto median_setup = [&workload] {
    for (int i = 0; i < kSetupWarmupsPerCpu; ++i) workload.setup();
    std::vector<double> v;
    for (int i = 0; i < kSetupsPerCpu; ++i) v.push_back(workload.setup());
    return median_of(std::move(v));
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return median_setup();
  }
  double fastest = std::numeric_limits<double>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    fastest = std::min(fastest, median_setup());
  }
  // Threads the workload starts inherit this thread's CPU set.
  if (::sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("cannot restore the CPU affinity");
  }
  return std::isfinite(fastest) ? fastest : median_setup();
}

/// Set-ups, then the closed loop: iterations until `seconds` of wall time
/// have passed (at least one). Ops are compared with the first iteration
/// of the same inputs; a differing digest is a failed op. Rates are
/// medians over iterations and times medians over ops, so one slow
/// stretch of a shared host moves no metric by itself.
RunOutcome measure(Workload& workload, double seconds) {
  RunOutcome out;
  const double setup_s = measure_setup(workload);

  std::vector<double> op_seconds;
  std::vector<double> packet_rates;  // Per iteration.
  std::vector<double> op_rates;      // Per iteration.
  struct Reference {
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> ops;
  };
  std::map<std::size_t, Reference> references;  // By Iteration::key.
  const auto start = Clock::now();
  do {
    Iteration it = workload.iterate();
    if (references.empty()) out.digest = it.digest;
    const auto [ref, first] = references.try_emplace(it.key);
    if (first) {
      ref->second.digest = it.digest;
      for (const Op& op : it.ops) ref->second.ops.push_back(op.digest);
    } else if (it.digest != ref->second.digest && !it.ops.empty() &&
               it.ops.front().error.empty()) {
      it.ops.front().error = "outputs differ from the first repetition";
    }
    const std::vector<std::uint64_t>& reference = ref->second.ops;
    for (std::size_t i = 0; i < it.ops.size(); ++i) {
      Op& op = it.ops[i];
      if (op.error.empty() &&
          (i >= reference.size() || op.digest != reference[i])) {
        op.error = "digest differs from the first repetition";
      }
      ++out.attempted;
      if (!op.error.empty()) {
        ++out.failed;
        if (out.errors.size() < 5) out.errors.push_back(op.error);
      }
      op_seconds.push_back(op.seconds);
    }
    if (it.seconds > 0.0) {
      packet_rates.push_back(static_cast<double>(it.packets) / it.seconds);
      op_rates.push_back(static_cast<double>(it.ops.size()) / it.seconds);
    }
  } while (seconds_since(start) < seconds);
  if (packet_rates.empty() || op_seconds.empty()) {
    throw std::runtime_error("no iteration completed an operation");
  }

  std::sort(op_seconds.begin(), op_seconds.end());
  const double ops = static_cast<double>(op_seconds.size());
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  out.metrics = {
      {"pkts_per_s", median_of(packet_rates)},
      {"ops_per_s", median_of(op_rates)},
      {"op_p50_s", median_of(op_seconds)},
      // Nearest rank. Ten samples lie beyond it only where a run has 200
      // or more ops (campaign cells), so it is printed, not gated.
      {"op_p95_s",
       op_seconds[static_cast<std::size_t>(std::ceil(0.95 * ops)) - 1]},
      {"setup_s", setup_s},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
      {"ops", ops},
  };
  return out;
}

struct Options {
  std::string workload;  ///< Non-empty: one in-process run.
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  ///< 0: BENCHMARK.json's run_seconds.
  int trace = 0;
  int runs = 5;
  int sets = 1;
  std::string out = kDefaultOut;
  std::string compare;
  std::vector<std::string> ab;
  bool defaults = false;
};

Doc metric_values(const Metrics& metrics, const std::vector<MetricDef>& defs) {
  Doc out = Doc::object();
  for (const MetricDef& def : defs) {
    const auto it = metrics.find(def.name);
    if (it == metrics.end()) {
      throw std::runtime_error("metric not computed: " + def.name);
    }
    if (!std::isfinite(it->second)) {
      throw std::runtime_error("metric is not finite: " + def.name);
    }
    out.set(def.name,
            Doc::object().set("value", it->second).set("unit", def.unit));
  }
  return out;
}

int run_one(const Options& opt, const BenchDef& def) {
  std::filesystem::create_directories(kScratchDir);
  const auto workload = make_workload(opt.workload, opt.seed, kScratchDir);
  RunOutcome run;
  if (opt.trace == 0) {
    run = measure(*workload, opt.seconds);
  } else {
    run.metrics = workload->trace();
    run.attempted = 1;
  }
  const std::vector<MetricDef>& declared =
      opt.trace == 0 ? def.end_to_end : def.per_layer;

  std::printf("workload %s  seed %llu  %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace == 0 ? "end to end"
                             : "per layer (replay: each layer measured in "
                               "isolation)");
  for (const auto& [name, value] : run.metrics) {
    std::printf("  %-36s %.6g\n", name.c_str(), value);
  }
  for (const std::string& e : run.errors) {
    std::printf("  failed op: %s\n", e.c_str());
  }
  Doc detail = Doc::object();
  Doc extra = Doc::object();
  for (const auto& [name, value] : run.metrics) extra.set(name, value);
  detail.set("digest", hex(run.digest)).set("metrics", std::move(extra));
  std::printf("detail %s\n", results::to_json(detail).c_str());

  Doc result = Doc::object();
  result.set("correct", run.failed == 0)
      .set("attempted", static_cast<unsigned long>(run.attempted))
      .set("failed", static_cast<unsigned long>(run.failed))
      .set("metrics", metric_values(run.metrics, declared));
  std::printf("%s\n", results::to_json(result).c_str());
  return 0;
}

// --- suite ----------------------------------------------------------------------

struct ChildResult {
  Doc result;  ///< The final line.
  Doc detail;  ///< The `detail` line.
};

/// Runs this binary with `args` and parses its last two stdout lines.
ChildResult run_child(const std::vector<std::string>& args) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::string> full = {self};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("posix_spawn failed");
  }
  std::string output;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child run failed:\n" + output);
  }
  std::vector<std::string> lines;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.size() < 2 || lines[lines.size() - 2].rfind("detail ", 0) != 0) {
    throw std::runtime_error("child printed no result:\n" + output);
  }
  ChildResult child;
  child.result = results::parse_json(lines.back());
  child.detail = results::parse_json(lines[lines.size() - 2].substr(7));
  return child;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Names some reports give a generic metric on one workload.
struct Alias {
  const char* workload;
  const char* name;
  const char* metric;
};
constexpr Alias kAliases[] = {
    {"scorecard", "scorecard_s", "op_p50_s"},
    {"campaign-grid", "cells_per_s", "ops_per_s"},
    {"campaign-grid", "cell_p50_s", "op_p50_s"},
    {"campaign-grid", "cell_p95_s", "op_p95_s"},
};

/// One workload's runs in one set: metric summaries, failures, digest and
/// the traced run's layers.
Doc run_workload(const std::string& name, const Options& opt,
                 const BenchDef& def) {
  const std::vector<std::string> base = {
      "--workload", name, "--seed", std::to_string(opt.seed), "--seconds",
      fmt(opt.seconds)};
  std::map<std::string, std::vector<double>> values;
  std::vector<double> ops_per_run;
  std::vector<double> op_p95s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string digest;
  for (int r = 0; r < opt.runs; ++r) {
    std::vector<std::string> args = base;
    args.insert(args.end(), {"--trace", "0"});
    const ChildResult child = run_child(args);
    attempted += member(child.result, "attempted").as_u64();
    failed += member(child.result, "failed").as_u64();
    const std::string d = member(child.detail, "digest").as_string();
    if (digest.empty()) digest = d;
    // Another process reproducing other outputs fails that run's ops.
    if (d != digest) failed += member(child.result, "attempted").as_u64();
    for (const auto& [metric, v] :
         member(child.result, "metrics").items()) {
      values[metric].push_back(member(v, "value").as_double());
    }
    const Doc& detail = member(child.detail, "metrics");
    ops_per_run.push_back(member(detail, "ops").as_double());
    op_p95s.push_back(member(detail, "op_p95_s").as_double());
  }

  Doc metrics = Doc::object();
  std::printf("\n%s  (%d runs, seed %llu, %zu ops, %zu failed)\n",
              name.c_str(), opt.runs,
              static_cast<unsigned long long>(opt.seed), attempted, failed);
  std::printf("  %-14s %-6s %12s %12s %12s %8s %7s\n", "metric", "unit",
              "median", "q1", "q3", "spread", "bound");
  for (const MetricDef& m : def.end_to_end) {
    const Summary s = summarize(values.at(m.name));
    Doc values_doc = Doc::array();
    for (const double v : values.at(m.name)) values_doc.push(v);
    Doc entry = summary_doc(s);
    entry.set("unit", m.unit)
        .set("better", std::string(to_string(m.better)))
        .set("values", std::move(values_doc));
    metrics.set(m.name, std::move(entry));
    std::printf("  %-14s %-6s %12s %12s %12s %7.1f%% %6.0f%%\n",
                m.name.c_str(), m.unit.c_str(), fmt(s.median).c_str(),
                fmt(s.q1).c_str(), fmt(s.q3).c_str(), 100.0 * s.spread(),
                100.0 * m.bound);
  }
  const double failed_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  // A p95 has ten samples beyond it only in runs of 200 or more ops
  // (campaign-grid's cells), so it is printed but not gated.
  const Summary p95 = summarize(op_p95s);
  std::printf("  %-14s %-6s %12s %12s %12s %7.1f%%  not gated\n",
              "op_p95_s", "s", fmt(p95.median).c_str(), fmt(p95.q1).c_str(),
              fmt(p95.q3).c_str(), 100.0 * p95.spread());
  for (const Alias& a : kAliases) {
    if (name == a.workload) std::printf("  %-14s is %s\n", a.name, a.metric);
  }
  std::printf("  failed_ratio %s   ops per run %s   digest %s\n",
              fmt(failed_ratio).c_str(),
              fmt(median_of(ops_per_run)).c_str(), digest.c_str());

  Doc out = Doc::object();
  out.set("attempted", static_cast<unsigned long>(attempted))
      .set("failed", static_cast<unsigned long>(failed))
      .set("failed_ratio", failed_ratio)
      .set("digest", digest)
      .set("metrics", std::move(metrics))
      .set("op_p95_s", summary_doc(p95))
      .set("ops_per_run", median_of(ops_per_run));

  std::vector<std::string> args = base;
  args.insert(args.end(), {"--trace", "1"});
  const ChildResult child = run_child(args);
  std::printf("  traced run (replay: each layer measured in isolation)\n");
  Doc layers = Doc::object();
  for (const MetricDef& m : def.per_layer) {
    const double v =
        member(member(member(child.result, "metrics"), m.name), "value")
            .as_double();
    std::printf("    %-36s %12s %s\n", m.name.c_str(), fmt(v).c_str(),
                m.unit.c_str());
    layers.set(m.name, Doc::object().set("value", v).set("unit", m.unit));
  }
  out.set("layers", std::move(layers));
  std::fflush(stdout);
  return out;
}

/// Summary of (metric, workload) from a set Doc; throws when absent.
Summary summary_at(const Doc& set, const std::string& workload,
                   const std::string& metric) {
  return summary_from_doc(
      member(member(member(member(set, "workloads"), workload), "metrics"),
             metric));
}

/// Prints the verdict of every (metric, workload) of `current` against
/// `base`; returns the number of regressions.
int compare_sets(const Doc& base, const Doc& current, const BenchDef& def) {
  int regressions = 0;
  std::printf("  %-16s %-12s %11s %11s %8s  %s\n", "workload", "metric",
              "base", "current", "worse", "verdict");
  for (const auto& [workload, doc] : member(current, "workloads").items()) {
    if (member(base, "workloads").find(workload) == nullptr) {
      std::printf("  %-16s no baseline\n", workload.c_str());
      continue;
    }
    for (const MetricDef& m : def.end_to_end) {
      const Summary b = summary_at(base, workload, m.name);
      const Summary c = summary_at(current, workload, m.name);
      const Verdict v = compare_medians(b, c, m.better, m.bound);
      if (v == Verdict::kRegression) ++regressions;
      std::printf("  %-16s %-12s %11s %11s %7.1f%%  %s\n", workload.c_str(),
                  m.name.c_str(), fmt(b.median).c_str(),
                  fmt(c.median).c_str(),
                  100.0 * worse_share(b.median, c.median, m.better),
                  std::string(to_string(v)).c_str());
    }
    const std::string& bd =
        member(member(member(base, "workloads"), workload), "digest")
            .as_string();
    if (member(doc, "digest").as_string() != bd) {
      std::printf("  %-16s digest changed: %s -> %s (information)\n",
                  workload.c_str(), bd.c_str(),
                  member(doc, "digest").as_string().c_str());
    }
  }
  return regressions;
}

int run_suite(const Options& opt, const BenchDef& def) {
  const std::vector<std::string>& names = def.workloads;
  const Doc stamp = machine_stamp();
  std::printf("idseval_bench suite: %zu workloads x %d runs x %d set(s), "
              "%gs each, seed %llu\nmachine: %s\n",
              names.size(), opt.runs, opt.sets, opt.seconds,
              static_cast<unsigned long long>(opt.seed),
              results::to_json(stamp).c_str());
  Doc sets = Doc::array();
  bool any_failed = false;
  for (int s = 0; s < opt.sets; ++s) {
    if (opt.sets > 1) std::printf("\n=== set %d of %d ===\n", s + 1, opt.sets);
    Doc workloads = Doc::object();
    for (const std::string& name : names) {
      Doc w = run_workload(name, opt, def);
      any_failed = any_failed || member(w, "failed").as_u64() != 0;
      workloads.set(name, std::move(w));
    }
    sets.push(Doc::object().set("workloads", std::move(workloads)));
  }
  for (std::size_t s = 1; s < sets.elements().size(); ++s) {
    std::printf("\nset %zu against set 1:\n", s + 1);
    compare_sets(sets.elements()[0], sets.elements()[s], def);
  }

  Doc out = Doc::object();
  out.set("claim", nullptr)
      .set("stamp", stamp)
      .set("seed", static_cast<unsigned long>(opt.seed))
      .set("runs", opt.runs)
      .set("seconds", opt.seconds)
      .set("sets", sets);
  const std::filesystem::path out_path(opt.out);
  if (out_path.has_parent_path()) {
    std::filesystem::create_directories(out_path.parent_path());
  }
  std::ofstream(opt.out) << results::to_json_pretty(out) << "\n";
  std::printf("\nwrote %s\n", opt.out.c_str());

  int rc = any_failed ? 1 : 0;
  if (!opt.compare.empty()) {
    const Doc base = results::parse_json(read_file(opt.compare));
    if (!comparable(stamp) || !comparable(member(base, "stamp"))) {
      std::fprintf(stderr,
                   "refusing to compare: both builds must be optimised "
                   "and unsanitized\n");
      return 2;
    }
    std::printf("\ncompare with %s (set 1):\n", opt.compare.c_str());
    const int regressions = compare_sets(member(base, "sets").elements().at(0),
                                         sets.elements().back(), def);
    if (regressions > 0) {
      std::printf("%d regression(s)\n", regressions);
      rc = 1;
    }
  }
  return rc;
}

// --- A/B report -----------------------------------------------------------------

std::vector<Doc> read_results(const std::string& path) {
  std::vector<Doc> out;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(results::parse_json(line));
  }
  return out;
}

int ab_report(const std::string& base_path, const std::string& change_path,
              const BenchDef& def) {
  const std::vector<Doc> base = read_results(base_path);
  const std::vector<Doc> change = read_results(change_path);
  if (base.empty() || base.size() != change.size()) {
    std::fprintf(stderr, "ab-report: need the same number of runs per side\n");
    return 2;
  }
  std::size_t failed[2] = {0, 0};
  for (std::size_t i = 0; i < base.size(); ++i) {
    failed[0] += member(base[i], "failed").as_u64();
    failed[1] += member(change[i], "failed").as_u64();
  }
  std::printf("  %-12s %-6s %32s %32s %7s  %s\n", "metric", "unit",
              "base median [q1, q3]", "change median [q1, q3]", "wins",
              "claim");
  for (const MetricDef& m : def.end_to_end) {
    const auto column = [&m](const std::vector<Doc>& side) {
      std::vector<double> v;
      for (const Doc& r : side) {
        v.push_back(
            member(member(member(r, "metrics"), m.name), "value").as_double());
      }
      return v;
    };
    const AbResult r = ab_compare(column(base), column(change), m.better);
    const auto cell = [](const Summary& s) {
      return fmt(s.median) + " [" + fmt(s.q1) + ", " + fmt(s.q3) + "]";
    };
    std::printf("  %-12s %-6s %32s %32s %3zu/%-3zu  %s\n", m.name.c_str(),
                m.unit.c_str(), cell(r.base).c_str(), cell(r.change).c_str(),
                r.wins, r.pairs,
                r.gain && failed[1] <= failed[0] ? "gain" : "-");
  }
  std::printf("  failed ops: base %zu, change %zu\n", failed[0], failed[1]);
  return 0;
}

// --- command line ---------------------------------------------------------------

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = value(i);
    } else if (a == "--seed") {
      opt.seed = std::stoull(value(i));
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value(i));
    } else if (a == "--trace") {
      opt.trace = std::stoi(value(i));
    } else if (a == "--runs") {
      opt.runs = std::stoi(value(i));
    } else if (a == "--sets") {
      opt.sets = std::stoi(value(i));
    } else if (a == "--out") {
      opt.out = value(i);
    } else if (a == "--compare") {
      opt.compare = value(i);
    } else if (a == "--ab-report") {
      opt.ab = {value(i), value(i)};
    } else if (a == "--defaults") {
      opt.defaults = true;
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (opt.trace != 0 && opt.trace != 1) {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  if (opt.runs < 1 || opt.sets < 1) {
    throw std::invalid_argument("--runs and --sets must be >= 1");
  }
  return opt;
}

int main_impl(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  const BenchDef def = load_bench_def();
  if (opt.seconds <= 0.0) opt.seconds = def.run_seconds;
  if (opt.defaults) {
    std::string names;
    for (const std::string& w : def.workloads) {
      names += (names.empty() ? "" : ",") + w;
    }
    std::printf("%s %d\n", names.c_str(), def.run_seconds);
    return 0;
  }
  if (!opt.ab.empty()) return ab_report(opt.ab[0], opt.ab[1], def);
  if (!opt.workload.empty()) return run_one(opt, def);
  return run_suite(opt, def);
}

}  // namespace
}  // namespace idseval::bench

int main(int argc, char** argv) {
  try {
    return idseval::bench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idseval_bench: %s\n", e.what());
    return 1;
  }
}
