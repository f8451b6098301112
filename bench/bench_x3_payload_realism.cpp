// X3: the paper's first lesson learned (§4): "a simple flooding of the
// network ... with meaningless data is not sufficient. ... If packets
// with random data are used to generate background traffic, then the IDS
// that analyzes both the header information and message data will not be
// realistically tested."
//
// The bench evaluates the same two products against the same attack
// scenario under (a) realistic protocol-shaped background and (b) a
// random-payload flood at the same rate, and shows how the flood
// mis-measures payload-inspecting IDSes: false-positive rates collapse
// to zero (no realistic content to confuse weak rules) and the anomaly
// product's learned baselines become meaningless.
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace idseval;

int main() {
  bench::print_header(
      "X3 - Random-payload flood vs realistic content (lesson learned #1)");

  util::TextTable table(
      {"Product", "Background", "FP ratio", "FN ratio",
       "Type I (% benign)", "Type II (% attacks)"},
      {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
       util::Align::kRight, util::Align::kRight, util::Align::kRight});

  for (const products::ProductId id :
       {products::ProductId::kSentryNid, products::ProductId::kFlowHunt}) {
    const products::ProductModel& model = products::product(id);
    for (const bool realistic : {true, false}) {
      harness::TestbedConfig env = bench::rt_environment(31);
      env.profile = realistic ? traffic::ecommerce_profile()
                              : traffic::random_flood_profile();
      harness::Testbed bed(env, &model, 0.6);
      const auto chain = attack::KillChain::mixed(
          4, netsim::SimTime::zero(), env.measure * 0.9, 555,
          env.external_hosts, env.internal_hosts);
      const harness::RunResult r = bed.run(chain);
      const double benign =
          static_cast<double>(r.transactions - r.attacks);
      table.add_row(
          {model.name, realistic ? "realistic (ecommerce)" : "random flood",
           util::fmt_double(r.fp_ratio, 5), util::fmt_double(r.fn_ratio, 5),
           util::fmt_double(benign > 0 ? 100.0 * r.false_alarms / benign
                                       : 0.0,
                            2),
           util::fmt_double(r.attacks > 0
                                ? 100.0 * r.missed_attacks / r.attacks
                                : 0.0,
                            2)});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Expected shape: under the random flood the signature product shows\n"
      "an unrealistically clean Type I rate (random bytes almost never\n"
      "contain the weak-rule patterns that legitimate admin traffic\n"
      "does), and the anomaly product's error rates shift because its\n"
      "baselines were learned from content-free noise. A procurement\n"
      "decision made from flood-only testing would overstate both\n"
      "products' precision in production.\n");
  return 0;
}
