// X6: Data Pool Selectability ablation (Table 2 / §3.2). "Data Pool
// Selectivity would allow the IDS to consider only protocols outside
// those typically used within the distributed cluster." Excluding the
// dominant, tuned cluster-RPC pool multiplies the sensor's headroom —
// and opens a measurable blind spot: attacks delivered inside the
// excluded pool (the novel cluster-bus exploit) become invisible.
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace idseval;

namespace {

products::ProductModel filtered_variant(bool exclude_cluster_pool) {
  products::ProductModel model =
      products::product(products::ProductId::kSentryNid);
  if (!exclude_cluster_pool) return model;
  model.name = "SentryNID/pool-filtered";
  const auto base = model.make_config;
  model.make_config = [base](double sensitivity) {
    ids::PipelineConfig cfg = base(sensitivity);
    // Trust the tuned intra-cluster bus: do not analyze it.
    cfg.tap_filter.exclude_dst_ports = {netsim::ports::kClusterRpc};
    return cfg;
  };
  return model;
}

}  // namespace

int main() {
  bench::print_header(
      "X6 - Data-pool selection: exclude the cluster-RPC pool from "
      "analysis (SentryNID, rt-cluster profile)");

  const harness::TestbedConfig env = bench::rt_environment(67);

  util::TextTable table(
      {"Configuration", "Zero-loss pps", "novel-exploit detected",
       "web-exploit detected", "FP ratio"},
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kRight});

  for (const bool filtered : {false, true}) {
    const products::ProductModel model = filtered_variant(filtered);
    const double zero_loss =
        harness::measure_zero_loss_pps(env, model, 0.5, 160.0, 1e-4, 5);

    harness::Testbed bed(env, &model, 0.5);
    const auto chain = attack::KillChain::of_kinds(
        {attack::AttackKind::kNovelExploit, attack::AttackKind::kWebExploit},
        4, netsim::SimTime::zero(), env.measure * 0.9, 4242,
        env.external_hosts, env.internal_hosts);
    const harness::RunResult r = bed.run(chain);

    const auto& novel = r.per_kind.at(attack::AttackKind::kNovelExploit);
    const auto& web = r.per_kind.at(attack::AttackKind::kWebExploit);
    table.add_row(
        {filtered ? "cluster pool excluded" : "full data pool",
         util::fmt_double(zero_loss, 0),
         std::to_string(novel.detected) + "/" +
             std::to_string(novel.launched),
         std::to_string(web.detected) + "/" + std::to_string(web.launched),
         util::fmt_double(r.fp_ratio, 5)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Expected shape: excluding the ~90%%-of-traffic cluster pool\n"
      "multiplies zero-loss throughput (the sensor only inspects the\n"
      "residue), detection of attacks OUTSIDE the pool is unchanged, and\n"
      "attacks delivered INSIDE the excluded pool are never seen. Note\n"
      "the novel exploit is signature-invisible to this product either\n"
      "way - the filtered column shows the pool exclusion also forecloses\n"
      "ever upgrading that blind spot with better rules.\n");
  return 0;
}
