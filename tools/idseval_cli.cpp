// idseval command-line driver: run the methodology without writing C++.
//
//   idseval_cli products
//       list the evaluated-product catalog
//   idseval_cli catalog [substring]
//       print metric definitions (optionally filtered by name substring)
//   idseval_cli evaluate --product NAME [--profile P] [--sensitivity S]
//                        [--seed N] [--load-metrics] [--notes]
//       evaluate one product, print its scorecard
//   idseval_cli rank [--profile P] [--weights realtime|ecommerce]
//                    [--seed N] [--jobs N] [--load-metrics] [--robustness]
//       evaluate every product and print the weighted ranking
//   idseval_cli sweep --product NAME [--profile P] [--steps N] [--seed N]
//                     [--single-pass]
//       Figure-4 sensitivity sweep with EER; --single-pass derives the
//       grid from one evidence-recorded run instead of N simulations
//   idseval_cli campaign --spec FILE [--jobs N] [--resume] [--out DIR]
//                        [--out-html]
//       run a multi-seed evaluation grid, aggregate with dispersion;
//       --out-html adds HTML and markdown summary tables
//   idseval_cli trace-check FILE
//       validate a --trace JSONL file (well-formed JSON lines, known
//       event schemas, zero dropped events)
//   idseval_cli trace-check --csv FILE [--expect-rows N]
//       validate a CSV export (rectangular, finite numbers, row count)
//
// evaluate, rank, and campaign accept --trace FILE to write a JSONL
// event trace of the run's pipeline telemetry.
//
// Each command accepts only the options it reads (command_options());
// any other --name exits 2 with "error: unknown option --NAME for
// COMMAND". A numeric option whose value is not a plain non-negative
// number exits 2 with "error: --NAME: expected ..., got 'VALUE'".
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "attack/kind.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "core/report.hpp"
#include "core/sensitivity.hpp"
#include "harness/evaluate.hpp"
#include "harness/measure.hpp"
#include "harness/run_context.hpp"
#include "products/catalog.hpp"
#include "results/csv.hpp"
#include "results/doc.hpp"
#include "results/html.hpp"
#include "results/table.hpp"
#include "score/breakdown.hpp"
#include "score/scorecard.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "util/strfmt.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace idseval;

namespace {

struct Args {
  std::string command;
  std::string positional;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  std::vector<std::string> names;  ///< Every --name, in argv order.

  bool has_flag(const std::string& name) const {
    for (const auto& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
  std::string opt(const std::string& name, std::string fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      args.names.push_back(name);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[name] = argv[++i];
      } else {
        args.flags.push_back(name);
      }
    } else if (args.positional.empty()) {
      args.positional = token;
    }
  }
  return args;
}

/// The value of numeric option `name`, or `fallback` when it is absent.
/// T is std::uint64_t (a non-negative integer) or double (a finite
/// non-negative number). A sign, a non-digit, trailing junk, a missing
/// value or overflow throws std::invalid_argument naming the option and
/// the value.
template <class T>
T numeric_opt(const Args& args, const std::string& name, T fallback) {
  const auto it = args.options.find(name);
  if (it == args.options.end() && !args.has_flag(name)) return fallback;
  const std::string text = it == args.options.end() ? "" : it->second;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value) && !std::signbit(value);
  }
  if (!ok) {
    throw std::invalid_argument(util::cat(
        "--", name, ": expected a non-negative ",
        std::is_floating_point_v<T> ? "number" : "integer", ", got '", text,
        "'"));
  }
  return value;
}

/// Parses every numeric option a command was given, so main() can exit 2
/// on a bad value before the command does any work.
void check_numeric_options(const Args& args) {
  for (const char* name : {"seed", "jobs", "shards", "steps", "expect-rows"}) {
    numeric_opt<std::uint64_t>(args, name, 0);
  }
  numeric_opt<double>(args, "sensitivity", 0.0);
}

std::optional<products::ProductId> product_by_name(const std::string& name) {
  for (const auto& model : products::product_catalog()) {
    if (model.name == name) return model.id;
  }
  return std::nullopt;
}

/// Opens the --trace sink (background writer thread) when requested;
/// nullptr otherwise.
std::unique_ptr<telemetry::TraceSink> open_trace(const Args& args) {
  const std::string path = args.opt("trace", "");
  if (path.empty()) return nullptr;
  return std::make_unique<telemetry::TraceSink>(path);
}

void report_trace(const telemetry::TraceSink& trace) {
  std::printf("trace: %s (%llu events, %llu dropped)\n",
              trace.path().c_str(),
              static_cast<unsigned long long>(trace.emitted()),
              static_cast<unsigned long long>(trace.dropped()));
}

harness::TestbedConfig make_env(const Args& args) {
  harness::TestbedConfig env;
  env.profile = traffic::profile_by_name(args.opt("profile", "rt_cluster"));
  env.seed = numeric_opt<std::uint64_t>(args, "seed", 42);
  // --shards N partitions each testbed over N event-queue shards
  // (results are byte-identical at any shard count; 1 = the legacy
  // single-queue engine).
  env.shards = std::max<std::size_t>(
      1, numeric_opt<std::uint64_t>(args, "shards", 1));
  // --no-scan-cache replays the exact legacy full-rescan detection path
  // (regression pinning for the interned-payload scan cache). Results
  // are byte-identical either way; only wall-clock changes.
  env.scan_cache = !args.has_flag("no-scan-cache");
  return env;
}

/// The Iannacone-Bridges unified cost table for one evaluation, built
/// from the Doc view so the CLI and any file writer agree on values.
std::string render_unified_score(const score::UnifiedScore& unified) {
  results::TableBuilder table({"Unified cost component", "Value"},
                              {"left", "right"});
  table.title("Unified cost/capability (default weights)");
  const results::Doc doc = score::to_doc(unified);
  for (const auto& [key, value] : doc.items()) {
    table.row({key, util::fmt_double(value.as_double(), 4)});
  }
  return results::render_table_text(table.build());
}

int cmd_products() {
  results::TableBuilder table({"Product", "Class", "Description"},
                              {"left", "left", "left"});
  for (const auto& model : products::product_catalog()) {
    table.row({model.name,
               model.deploys_host_agents ? "host/hybrid" : "network",
               model.description});
  }
  std::printf("%s", results::render_table_text(table.build()).c_str());
  return 0;
}

int cmd_catalog(const Args& args) {
  for (const core::Metric& m : core::metric_catalog()) {
    if (!args.positional.empty() &&
        m.name.find(args.positional) == std::string::npos) {
      continue;
    }
    std::printf("%s\n", core::render_metric_definition(m.id).c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto id = product_by_name(args.opt("product", ""));
  if (!id) {
    std::fprintf(stderr, "unknown --product (see 'idseval_cli products')\n");
    return 2;
  }
  const harness::TestbedConfig env = make_env(args);
  harness::EvaluationOptions options;
  options.sensitivity = numeric_opt(args, "sensitivity", 0.5);
  options.include_load_metrics = args.has_flag("load-metrics");
  options.kill_chain = args.opt("kill-chain", "");

  const auto& model = products::product(*id);
  std::printf("evaluating %s on profile '%s' (seed %llu)...\n\n",
              model.name.c_str(), env.profile.name.c_str(),
              static_cast<unsigned long long>(env.seed));
  auto trace = open_trace(args);
  harness::RunContext ctx(trace.get());
  const harness::Evaluation eval =
      harness::evaluate_product(env, model, options, &ctx);

  const harness::RunResult& run = eval.measured.detection_run;
  std::printf("transactions=%zu attacks=%zu detected=%zu "
              "false-alarms=%zu missed=%zu\n",
              run.transactions, run.attacks, run.true_detections,
              run.false_alarms, run.missed_attacks);
  std::printf("FP=%.5f FN=%.5f timeliness=%.2fs peak-streams=%zu\n\n",
              run.fp_ratio, run.fn_ratio, run.timeliness_mean_sec,
              run.peak_concurrent_streams);

  // Per-technique / per-stage breakdown (always present when the run
  // launched labeled attacks; the stage column is the kill-chain ground
  // truth, or the kinds' default stages on a flat scenario).
  if (!run.breakdown.empty()) {
    const results::Doc technique_doc =
        score::technique_table_doc(run.breakdown);
    const results::Doc stage_doc = score::stage_table_doc(run.breakdown);
    std::printf("%s\n",
                results::render_table_text(technique_doc).c_str());
    std::printf("%s\n", results::render_table_text(stage_doc).c_str());
    if (run.breakdown.chain_broken_at >= 0) {
      std::printf("chain broken at stage: %s\n\n",
                  attack::to_string(static_cast<attack::Stage>(
                                        run.breakdown.chain_broken_at))
                      .c_str());
    }
    // --out DIR: the same Docs through the CSV and HTML writers.
    if (const std::string out = args.opt("out", ""); !out.empty()) {
      const std::filesystem::path out_dir = out;
      std::filesystem::create_directories(out_dir);
      const std::string csv_path =
          (out_dir / (model.name + "_breakdown.csv")).string();
      std::ofstream csv(csv_path);
      csv << results::table_to_csv(technique_doc);
      csv << "\n" << results::table_to_csv(stage_doc);
      const std::string html_path =
          (out_dir / (model.name + "_breakdown.html")).string();
      std::ofstream html(html_path);
      html << results::html_document(
          "Detection breakdown: " + model.name + " on " + env.profile.name,
          {technique_doc, stage_doc});
      std::printf("breakdown: %s, %s\n\n", csv_path.c_str(),
                  html_path.c_str());
    }
  }

  const bool notes = args.has_flag("notes");
  const core::Scorecard cards[] = {eval.card};
  std::printf("%s\n", core::render_metric_table(
                          "Logistical", core::table1_logistical_metrics(),
                          cards, notes)
                          .c_str());
  std::printf("%s\n",
              core::render_metric_table(
                  "Architectural", core::table2_architectural_metrics(),
                  cards, notes)
                  .c_str());
  std::printf("%s\n", core::render_metric_table(
                          "Performance", core::table3_performance_metrics(),
                          cards, notes)
                          .c_str());
  std::printf("%s\n", render_unified_score(eval.unified).c_str());
  std::printf(
      "%s\n",
      telemetry::render_telemetry(eval.measured.detection_telemetry,
                                  ctx.registry())
          .c_str());
  if (trace) {
    ctx.emit(harness::evaluation_event(model.name, env.profile.name,
                                       env.seed, ctx.registry()));
    // The load probes run in their own registry (harness.probes and the
    // per-stage probe telemetry), separate from the detection window.
    if (!eval.measured.load_probe_telemetry.empty()) {
      ctx.emit(harness::load_probes_event(
          model.name, env.profile.name, env.seed,
          eval.measured.load_probe_telemetry));
    }
    trace->close();
    report_trace(*trace);
  }
  return 0;
}

int cmd_rank(const Args& args) {
  const harness::TestbedConfig env = make_env(args);
  harness::EvaluationOptions options;
  options.sensitivity = numeric_opt(args, "sensitivity", 0.5);
  options.include_load_metrics = args.has_flag("load-metrics");
  options.kill_chain = args.opt("kill-chain", "");

  // --jobs N spreads the per-product evaluations over the thread pool;
  // each evaluation is deterministic on its own, so the ranking is
  // identical at any job count.
  const std::size_t jobs = numeric_opt<std::uint64_t>(args, "jobs", 1);
  const auto& catalog = products::product_catalog();
  auto trace = open_trace(args);
  // Full evaluations (not just cards) so the load-probe registries are
  // still around for the trace events below.
  std::vector<std::optional<harness::Evaluation>> slots(catalog.size());
  // One context per product so the telemetry of concurrent evaluations
  // stays separated; trace events are emitted in catalog order below.
  std::vector<std::unique_ptr<harness::RunContext>> ctxs(catalog.size());
  for (auto& ctx : ctxs) {
    ctx = std::make_unique<harness::RunContext>(trace.get());
  }
  {
    util::ThreadPool pool(jobs);
    pool.parallel_for(catalog.size(), [&](std::size_t i) {
      slots[i].emplace(harness::evaluate_product(env, catalog[i], options,
                                                 ctxs[i].get()));
    });
  }
  if (trace) {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      ctxs[i]->emit(harness::evaluation_event(
          catalog[i].name, env.profile.name, env.seed,
          ctxs[i]->registry()));
      const telemetry::Registry& probes =
          slots[i]->measured.load_probe_telemetry;
      if (!probes.empty()) {
        ctxs[i]->emit(harness::load_probes_event(
            catalog[i].name, env.profile.name, env.seed, probes));
      }
    }
  }
  std::vector<core::Scorecard> cards;
  cards.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::printf("evaluated %s\n", catalog[i].name.c_str());
    cards.push_back(std::move(slots[i]->card));
  }

  const std::string profile = args.opt("weights", "realtime");
  const core::WeightSet weights =
      profile == "ecommerce"
          ? core::ecommerce_requirements().derive_weights()
          : core::realtime_distributed_requirements().derive_weights();
  std::printf("\n%s\n",
              core::render_weighted_summary(
                  "Ranking (" + profile + " requirement profile)", cards,
                  weights)
                  .c_str());
  {
    // The unified cost model ranks on one absolute number beside the
    // paper's weighted class scores: capability 1 = perfect, 0 = no
    // better than running no IDS.
    results::TableBuilder unified({"Product", "Total cost", "Capability"},
                                  {"left", "right", "right"});
    unified.title("Unified cost/capability (default weights)");
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const score::UnifiedScore& u = slots[i]->unified;
      unified.row({catalog[i].name, util::fmt_double(u.total_cost, 2),
                   util::fmt_double(u.capability, 4)});
    }
    std::printf("%s\n",
                results::render_table_text(unified.build()).c_str());
  }
  if (!options.kill_chain.empty()) {
    // Cross-product per-stage view of the campaign: which stage each
    // product first loses track of the intrusion at.
    results::TableBuilder stages(
        {"Product", "Stage", "Launched", "Detected", "Det rate", "Chain"},
        {"left", "left", "right", "right", "right", "left"});
    stages.title("Per-stage detection ('" + options.kill_chain +
                 "' kill chain)");
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const score::DetectionBreakdown& b =
          slots[i]->measured.detection_run.breakdown;
      for (const score::StageRow& row : b.stages) {
        stages.row(
            {catalog[i].name,
             attack::to_string(static_cast<attack::Stage>(row.stage)),
             row.launched, row.detected,
             util::fmt_double(row.detection_rate(), 3),
             row.stage == b.chain_broken_at ? "broken-here" : ""});
      }
    }
    std::printf("%s\n", results::render_table_text(stages.build()).c_str());
  }
  if (args.has_flag("robustness")) {
    std::printf("%s\n",
                core::render_weight_robustness(cards, weights).c_str());
  }
  if (trace) {
    trace->close();
    report_trace(*trace);
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto id = product_by_name(args.opt("product", ""));
  if (!id) {
    std::fprintf(stderr, "unknown --product (see 'idseval_cli products')\n");
    return 2;
  }
  const harness::TestbedConfig env = make_env(args);
  const std::uint64_t steps = numeric_opt<std::uint64_t>(args, "steps", 11);
  std::vector<double> sensitivities;
  for (std::uint64_t i = 0; i < steps; ++i) {
    sensitivities.push_back(
        static_cast<double>(i) /
        static_cast<double>(std::max<std::uint64_t>(1, steps - 1)));
  }
  // --single-pass records per-transaction evidence in ONE simulation and
  // derives every sweep point offline; the default re-simulates the
  // testbed once per grid point (the reference path).
  const bool single_pass = args.has_flag("single-pass");
  std::vector<harness::ErrorRatePoint> sweep;
  harness::SinglePassSweep recorded;
  if (single_pass) {
    recorded = harness::single_pass_sensitivity_sweep(
        env, products::product(*id), sensitivities, 4);
    sweep = recorded.points;
  } else {
    sweep = harness::sensitivity_sweep(env, products::product(*id),
                                       sensitivities, 4);
  }

  results::TableBuilder table({"Sensitivity", "Type I (% benign)",
                               "Type II (% attacks)"},
                              {"right", "right", "right"});
  table.title(products::to_string(*id) + " on " + env.profile.name +
              (single_pass ? " (single-pass)" : ""));
  for (const auto& p : sweep) {
    table.row({util::fmt_double(p.sensitivity, 2),
               util::fmt_double(p.fp_percent_of_benign, 2),
               util::fmt_double(p.fn_percent_of_attacks, 2)});
  }
  std::printf("%s", results::render_table_text(table.build()).c_str());
  const auto eer = harness::equal_error_rate(sweep);
  if (eer.found) {
    std::printf("Equal Error Rate: %.2f%% at sensitivity %.3f\n",
                eer.error_percent, eer.sensitivity);
  } else {
    std::printf("no Type I / Type II crossing in [0,1]\n");
  }
  if (single_pass) {
    std::printf("single-pass ledger: %zu transactions (%zu attacks), "
                "%llu evidence observations, ROC AUC %.4f\n",
                recorded.roc.transactions(), recorded.roc.attacks(),
                static_cast<unsigned long long>(
                    recorded.evidence_observations),
                recorded.roc.auc());
  }
  return 0;
}

int cmd_campaign(const Args& args) {
  const std::string spec_path = args.opt("spec", "");
  if (spec_path.empty()) {
    std::fprintf(stderr, "campaign: --spec FILE is required\n");
    return 2;
  }
  std::ifstream in(spec_path);
  if (!in.good()) {
    std::fprintf(stderr, "campaign: cannot read spec file %s\n",
                 spec_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text.str());
  // --shards overrides the spec before the store opens, so the engine
  // choice lands in the fingerprint and a mismatched --resume is refused.
  if (args.options.contains("shards")) {
    spec.shards =
        std::max<std::size_t>(1, numeric_opt<std::uint64_t>(args, "shards", 1));
  }

  const std::filesystem::path out_dir = args.opt("out", "campaign-out");
  std::filesystem::create_directories(out_dir);
  const std::string store_path = (out_dir / (spec.name + ".jsonl")).string();
  const bool resume = args.has_flag("resume");

  campaign::ResultStore store(store_path, spec, /*fresh=*/!resume);
  std::printf("campaign '%s': %zu cells (%zu products x %zu profiles x "
              "%zu sensitivities x %zu replicates)\n",
              spec.name.c_str(), spec.cell_count(), spec.products.size(),
              spec.profiles.size(), spec.sensitivities.size(),
              spec.replicates);
  if (resume && store.ok_count() > 0) {
    std::printf("resuming: %zu cell(s) already complete in %s\n",
                store.ok_count(), store_path.c_str());
  }

  auto trace = open_trace(args);
  telemetry::Registry aggregate_telemetry;

  campaign::RunOptions run_options;
  run_options.jobs = numeric_opt<std::uint64_t>(args, "jobs", 1);
  run_options.telemetry = &aggregate_telemetry;
  run_options.trace = trace.get();
  if (trace) {
    results::Doc event = results::Doc::object();
    event.set("type", "campaign_begin")
        .set("name", spec.name)
        .set("cells", spec.cell_count())
        .set("jobs", run_options.jobs);
    trace->emit(event);
  }
  run_options.on_cell = [](const campaign::CellResult& r, std::size_t done,
                           std::size_t total) {
    std::printf("[%zu/%zu] %-10s %-12s s=%.2f rep=%zu %6.2fs %s%s\n", done,
                total, products::product(r.cell.product).name.c_str(),
                r.cell.profile.c_str(), r.cell.sensitivity,
                r.cell.replicate, r.wall_sec,
                r.ok ? "ok" : "FAILED: ", r.ok ? "" : r.error.c_str());
    std::fflush(stdout);
  };
  const campaign::RunStats stats =
      campaign::run_campaign(spec, store, run_options);
  std::printf("\n%zu cells: %zu skipped (resumed), %zu executed, "
              "%zu failed, %.2fs wall (%.2f cells/sec)\n\n",
              stats.total_cells, stats.skipped, stats.executed,
              stats.failed,
              stats.wall_sec,
              stats.wall_sec > 0.0
                  ? static_cast<double>(stats.executed) / stats.wall_sec
                  : 0.0);

  const campaign::CampaignAggregate agg =
      campaign::aggregate(spec, store.results());
  const std::string summary = campaign::render_summary(spec, agg);
  const std::string eer = campaign::render_eer_summary(spec, agg);
  std::printf("%s\n", summary.c_str());
  if (!eer.empty()) std::printf("%s\n", eer.c_str());
  const results::Doc killchain_doc =
      campaign::killchain_table_doc(spec, agg);
  if (!killchain_doc.is_null()) {
    std::printf("%s\n",
                results::render_table_text(killchain_doc).c_str());
  }

  // Aggregate pipeline telemetry across this run's executed cells. The
  // snapshot is simulation-time-only, so it (and the .txt file) stays
  // byte-identical across worker counts; wall-clock cell times go to
  // stdout only.
  const std::string telemetry_section = telemetry::render_telemetry(
      telemetry::snapshot_pipeline(aggregate_telemetry));
  std::printf("%s\n", telemetry_section.c_str());
  if (const telemetry::LatencyStat* wall = aggregate_telemetry.find_latency(
          telemetry::names::kCampaignCellWall);
      wall != nullptr && wall->stats().count() > 0) {
    std::printf("cell wall clock: mean %s  p99 %s  max %s\n",
                telemetry::fmt_duration(wall->stats().mean()).c_str(),
                telemetry::fmt_duration(
                    wall->histogram().quantile(0.99))
                    .c_str(),
                telemetry::fmt_duration(wall->stats().max()).c_str());
  }

  const std::string csv_path = (out_dir / (spec.name + ".csv")).string();
  std::ofstream csv(csv_path);
  csv << campaign::to_csv(spec, agg);
  // Columnar per-stage latency export: one row per (cell, stage) across
  // the whole sensitivity grid, for latency-distribution-vs-sensitivity
  // plots without re-parsing the JSONL store.
  const std::string stages_path =
      (out_dir / (spec.name + "_stages.csv")).string();
  std::ofstream stages(stages_path);
  stages << campaign::stages_to_csv(spec, store.results());
  // Kill-chain per-stage rollup (kill-chain campaigns only): its own CSV
  // beside the aggregate, plus the text/HTML sections below.
  if (const std::string killchain_csv = campaign::killchain_to_csv(spec, agg);
      !killchain_csv.empty()) {
    const std::string killchain_path =
        (out_dir / (spec.name + "_killchain.csv")).string();
    std::ofstream kc(killchain_path);
    kc << killchain_csv;
    std::printf("kill-chain stages: %s\n", killchain_path.c_str());
  }
  const std::string summary_path =
      (out_dir / (spec.name + ".txt")).string();
  std::ofstream txt(summary_path);
  txt << summary;
  if (!eer.empty()) txt << "\n" << eer;
  if (!killchain_doc.is_null()) {
    txt << "\n" << results::render_table_text(killchain_doc);
  }
  txt << "\n" << telemetry_section;
  std::printf("results: %s\naggregate: %s, %s\nstages: %s\n",
              store_path.c_str(), csv_path.c_str(), summary_path.c_str(),
              stages_path.c_str());
  if (args.has_flag("out-html")) {
    // Same table Docs as the text summary, rendered by the HTML and
    // markdown writers — one Doc, every view.
    const results::Doc summary_doc = campaign::summary_table_doc(spec, agg);
    const results::Doc eer_doc = campaign::eer_table_doc(spec, agg);
    const std::string html_path =
        (out_dir / (spec.name + ".html")).string();
    std::ofstream html(html_path);
    html << results::html_document("Campaign '" + spec.name + "'",
                                   {summary_doc, eer_doc, killchain_doc});
    const std::string md_path = (out_dir / (spec.name + ".md")).string();
    std::ofstream md(md_path);
    md << results::table_to_markdown(summary_doc);
    if (!eer_doc.is_null()) {
      md << "\n" << results::table_to_markdown(eer_doc);
    }
    if (!killchain_doc.is_null()) {
      md << "\n" << results::table_to_markdown(killchain_doc);
    }
    std::printf("html: %s\nmarkdown: %s\n", html_path.c_str(),
                md_path.c_str());
  }
  if (trace) {
    // The trace, like the store, carries simulation-time telemetry only:
    // the wall-clock instrument would make fixed-seed trace files differ
    // between otherwise identical runs.
    telemetry::Registry traced_telemetry;
    for (const auto& [name, counter] : aggregate_telemetry.counters()) {
      traced_telemetry.counter(name).increment(counter.value());
    }
    for (const auto& [name, stat] : aggregate_telemetry.latencies()) {
      if (name == telemetry::names::kCampaignCellWall) continue;
      traced_telemetry.latency(name).merge(stat);
    }
    results::Doc event = results::Doc::object();
    event.set("type", "campaign_end")
        .set("name", spec.name)
        .set("executed", stats.executed)
        .set("failed", stats.failed)
        .set("telemetry", telemetry::to_doc(traced_telemetry));
    trace->emit(event);
    trace->close();
    report_trace(*trace);
    if (trace->dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace buffer dropped %llu event(s)\n",
                   static_cast<unsigned long long>(trace->dropped()));
    }
  }
  return 0;
}

/// --csv mode: structural validation through results::check_csv plus an
/// optional exact data-row count (campaign stage exports have a known
/// shape: cells x pipeline stages).
int check_csv_file(const Args& args) {
  const std::string path = args.opt("csv", "");
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "trace-check: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  results::CsvShape shape;
  try {
    shape = results::check_csv(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace-check: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (args.options.contains("expect-rows")) {
    const std::size_t want =
        numeric_opt<std::uint64_t>(args, "expect-rows", 0);
    if (shape.data_rows != want) {
      std::fprintf(stderr,
                   "trace-check: %s has %zu data rows, expected %zu\n",
                   path.c_str(), shape.data_rows, want);
      return 1;
    }
  }
  std::printf("trace-check: %s ok (%zu columns, %zu rows)\n", path.c_str(),
              shape.columns.size(), shape.data_rows);
  return 0;
}

int cmd_trace_check(const Args& args) {
  if (!args.opt("csv", "").empty()) return check_csv_file(args);
  const std::string path =
      args.positional.empty() ? args.opt("file", "") : args.positional;
  if (path.empty()) {
    std::fprintf(stderr, "trace-check: FILE is required\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "trace-check: cannot read %s\n", path.c_str());
    return 2;
  }
  std::string line;
  std::size_t lines = 0;
  std::size_t events = 0;
  bool saw_summary = false;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.empty()) {
      std::fprintf(stderr, "trace-check: line %zu is empty\n", lines);
      return 1;
    }
    results::Doc event;
    try {
      event = results::parse_json(line);
    } catch (const std::exception&) {
      std::fprintf(stderr, "trace-check: line %zu is not valid JSON\n",
                   lines);
      return 1;
    }
    try {
      telemetry::check_trace_event(event);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace-check: line %zu: %s\n", lines, e.what());
      return 1;
    }
    if (saw_summary) {
      std::fprintf(stderr,
                   "trace-check: line %zu follows the trace_summary "
                   "footer\n",
                   lines);
      return 1;
    }
    const results::Doc* type = event.find("type");
    if (event.is_object() && type != nullptr && type->is_string() &&
        type->as_string() == "trace_summary") {
      const results::Doc* e = event.find("emitted");
      const results::Doc* d = event.find("dropped");
      if (e == nullptr || !e->is_number() || d == nullptr ||
          !d->is_number()) {
        std::fprintf(stderr,
                     "trace-check: line %zu has a malformed "
                     "trace_summary footer\n",
                     lines);
        return 1;
      }
      saw_summary = true;
      emitted = e->as_u64();
      dropped = d->as_u64();
    } else {
      ++events;
    }
  }
  if (!saw_summary) {
    std::fprintf(stderr,
                 "trace-check: no trace_summary footer (truncated "
                 "trace?)\n");
    return 1;
  }
  if (emitted != events) {
    std::fprintf(stderr,
                 "trace-check: footer claims %llu emitted events but "
                 "%zu are present\n",
                 static_cast<unsigned long long>(emitted), events);
    return 1;
  }
  if (dropped != 0) {
    std::fprintf(stderr, "trace-check: %llu event(s) were dropped\n",
                 static_cast<unsigned long long>(dropped));
    return 1;
  }
  std::printf("trace-check: %s ok (%zu events, 0 dropped)\n", path.c_str(),
              events);
  return 0;
}

/// The options each command reads. Any other --name is a usage error,
/// so a misspelt or retired option cannot pass silently.
const std::map<std::string, std::vector<std::string>>& command_options() {
  static const std::map<std::string, std::vector<std::string>> kOptions = {
      {"products", {}},
      {"catalog", {}},
      {"evaluate",
       {"product", "profile", "sensitivity", "seed", "shards", "load-metrics",
        "notes", "no-scan-cache", "kill-chain", "out", "trace"}},
      {"rank",
       {"profile", "weights", "sensitivity", "seed", "jobs", "shards",
        "load-metrics", "robustness", "no-scan-cache", "kill-chain",
        "trace"}},
      {"sweep",
       {"product", "profile", "steps", "seed", "shards", "single-pass",
        "no-scan-cache"}},
      {"campaign",
       {"spec", "jobs", "shards", "resume", "out", "out-html", "trace"}},
      {"trace-check", {"file", "csv", "expect-rows"}},
  };
  return kOptions;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: idseval_cli <command> [options]\n"
      "  products                                list evaluated products\n"
      "  catalog [substring]                     metric definitions\n"
      "  evaluate --product NAME [--profile P] [--sensitivity S]\n"
      "           [--seed N] [--shards N] [--load-metrics] [--notes]\n"
      "           [--no-scan-cache] [--kill-chain NAME] [--out DIR]\n"
      "           [--trace FILE]\n"
      "  rank [--profile P] [--weights realtime|ecommerce] [--seed N]\n"
      "       [--jobs N] [--shards N] [--load-metrics] [--robustness]\n"
      "       [--no-scan-cache] [--kill-chain NAME] [--trace FILE]\n"
      "  sweep --product NAME [--profile P] [--steps N] [--seed N]\n"
      "        [--shards N] [--single-pass] [--no-scan-cache]\n"
      "  campaign --spec FILE [--jobs N] [--shards N] [--resume]\n"
      "           [--out DIR] [--out-html] [--trace FILE]\n"
      "  trace-check FILE                        validate a trace file\n"
      "  trace-check --csv FILE [--expect-rows N] validate a CSV export\n"
      "--no-scan-cache replays the legacy full-rescan detection path\n"
      "(results byte-identical to the default cached path)\n"
      "--kill-chain runs a staged campaign (recon -> exploit -> lateral\n"
      "-> exfil) instead of the flat mixed scenario and reports the\n"
      "per-ATT&CK-technique / per-stage detection breakdown\n"
      "kill chains: intrusion, ics-takeover, canbus-storm\n"
      "profiles: rt_cluster, ecommerce, office, random_flood, megaflow, "
      "ics, canbus\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto known = command_options().find(args.command);
  if (known == command_options().end()) return usage();
  for (const std::string& name : args.names) {
    if (std::find(known->second.begin(), known->second.end(), name) ==
        known->second.end()) {
      std::fprintf(stderr, "error: unknown option --%s for %s\n",
                   name.c_str(), args.command.c_str());
      return 2;
    }
  }
  try {
    check_numeric_options(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (args.command == "products") return cmd_products();
    if (args.command == "catalog") return cmd_catalog(args);
    if (args.command == "evaluate") return cmd_evaluate(args);
    if (args.command == "rank") return cmd_rank(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "campaign") return cmd_campaign(args);
    if (args.command == "trace-check") return cmd_trace_check(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
