// Figure 3 reproduction: False Positive (Type I) and False Negative
// (Type II) errors over the transaction universe. Prints the set sizes
// of the paper's Venn construction — Transactions T, Actual Intrusions A,
// IDS Detected Intrusions D, their overlap, and the two ratios
// FP = |D - A| / |T| and FN = |A - D| / |T| — plus the per-attack-kind
// breakdown that explains *which* intrusions each engine type misses.
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace idseval;

int main() {
  bench::print_header(
      "Figure 3 - Type I / Type II errors per product (mixed attack "
      "scenario, rt-cluster background, sensitivity 0.5)");

  const harness::TestbedConfig env = bench::rt_environment(17);

  for (const products::ProductModel& model : products::product_catalog()) {
    harness::Testbed bed(env, &model, 0.5);
    const auto chain = attack::KillChain::mixed(
        4, netsim::SimTime::zero(), env.measure * 0.9, 1234,
        env.external_hosts, env.internal_hosts);
    const harness::RunResult r = bed.run(chain);

    std::printf("%s\n", model.name.c_str());
    std::printf("  Transactions (T):            %zu\n", r.transactions);
    std::printf("  Actual Intrusions (A):       %zu\n", r.attacks);
    std::printf("  IDS Detected (D):            %zu\n", r.detected);
    std::printf("  Correct Detections (A n D):  %zu\n", r.true_detections);
    std::printf("  False Positives |D - A|:     %zu   (Type I)\n",
                r.false_alarms);
    std::printf("  Prevented post-block (P):    %zu   (response, not "
                "error)\n",
                r.prevented_attacks);
    std::printf("  False Negatives |A - D - P|: %zu   (Type II)\n",
                r.missed_attacks);
    std::printf("  FP ratio |D-A|/|T|:          %.5f\n", r.fp_ratio);
    std::printf("  FN ratio |A-D|/|T|:          %.5f\n", r.fn_ratio);

    util::TextTable table({"Attack kind", "Detected/Launched",
                           "Prevented", "Known signature?"},
                          {util::Align::kLeft, util::Align::kRight,
                           util::Align::kRight, util::Align::kLeft});
    for (const auto& [kind, outcome] : r.per_kind) {
      table.add_row({attack::to_string(kind),
                     std::to_string(outcome.detected) + "/" +
                         std::to_string(outcome.launched),
                     std::to_string(outcome.prevented),
                     attack::traits(kind).known_signature ? "yes" : "no"});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}
