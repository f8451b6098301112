// Table 2 reproduction: Selected Architectural Metrics. Most are scored
// from fact sheets; System Throughput and Data Storage are *measured* on
// the testbed (the paper marks them as analysis-observed) and the
// measured values are shown beside the discrete scores.
#include <vector>

#include "bench_common.hpp"
#include "core/autoscore.hpp"
#include "core/report.hpp"
#include "util/strfmt.hpp"
#include "util/table.hpp"

using namespace idseval;

int main() {
  bench::print_header(
      "Table 2 - Selected Architectural Metrics (fact-scored + measured "
      "System Throughput / Data Storage)");

  const harness::TestbedConfig env = bench::rt_environment();

  std::vector<core::Scorecard> cards;
  std::vector<products::ProductId> ids = products::commercial_products();
  ids.push_back(products::ProductId::kAgentSwarm);

  for (const products::ProductId id : ids) {
    const products::ProductModel& model = products::product(id);
    core::Scorecard card = products::facts_scorecard(model);

    // Measure the two analysis-observed architectural metrics.
    const double throughput =
        harness::measure_system_throughput_pps(env, model, 0.5);
    card.set(core::MetricId::kSystemThroughput,
             core::score_system_throughput(throughput),
             util::cat(util::fmt_si(throughput), " pps"));

    harness::Testbed bed(env, &model, 0.5);
    const auto chain = attack::KillChain::mixed(
        2, netsim::SimTime::zero(), env.measure * 0.9, env.seed,
        env.external_hosts, env.internal_hosts);
    const harness::RunResult run = bed.run(chain);
    card.set(core::MetricId::kDataStorage,
             core::score_data_storage(run.storage_bytes_per_mb),
             util::cat(util::fmt_si(run.storage_bytes_per_mb), "B/MB"));

    cards.push_back(std::move(card));
  }

  std::printf("%s\n",
              core::render_metric_table("Selected architectural metrics",
                                        core::table2_architectural_metrics(),
                                        cards, /*show_notes=*/true)
                  .c_str());

  std::printf("%s\n", core::render_metric_definition(
                          core::MetricId::kScalableLoadBalancing)
                          .c_str());

  std::printf("Full architectural class:\n\n%s\n",
              core::render_metric_table(
                  "All architectural metrics",
                  core::metrics_in_class(core::MetricClass::kArchitectural),
                  cards)
                  .c_str());
  return 0;
}
