// The operator's view: run a monitored enclave under attack and print
// what the monitoring subprocess shows a human — the threat summary
// (severity histogram, top offenders, alert-rate trend), historical
// queries, and the automated-reaction timeline (firewall blocks, SNMP
// traps) the management console executed. This is the "Monitoring" and
// "Managing" half of Figure 1 that the scorecard's Clarity of Reports,
// Notification and Firewall Interaction metrics judge.
#include <cstdio>

#include "harness/testbed.hpp"

using namespace idseval;
using netsim::SimTime;

int main() {
  harness::TestbedConfig env;
  env.profile = traffic::rt_cluster_profile();
  env.internal_hosts = 8;
  env.external_hosts = 4;
  env.seed = 77;
  env.warmup = SimTime::from_sec(10);
  env.measure = SimTime::from_sec(40);

  const products::ProductModel& model =
      products::product(products::ProductId::kGuardSecure);
  harness::Testbed bed(env, &model, 0.6);

  // A noisy fortnight compressed into 40 seconds: scans, floods, worms,
  // an insider, repeated from a small set of attackers.
  const auto chain = attack::KillChain::mixed(
      3, SimTime::zero(), SimTime::from_sec(36), 2024, env.external_hosts,
      env.internal_hosts);
  const harness::RunResult run = bed.run(chain);

  ids::Pipeline& pipeline = *bed.pipeline();

  // --- The operator report -------------------------------------------------
  std::printf("%s\n",
              pipeline.monitor()
                  .render_report(env.warmup, env.warmup + env.measure,
                                 /*trend_buckets=*/12)
                  .c_str());

  // --- Historical queries ---------------------------------------------------
  const auto critical = pipeline.monitor().alerts_at_least(5);
  std::printf("critical alerts (severity 5): %zu\n", critical.size());
  for (const auto& alert : critical) {
    std::printf("  [%s] %s from %s (confidence %.2f)\n",
                alert.raised.to_string().c_str(), alert.rule.c_str(),
                alert.tuple.src_ip.to_string().c_str(), alert.confidence);
  }

  // --- Automated reactions ---------------------------------------------------
  if (pipeline.console() != nullptr) {
    const auto& stats = pipeline.console()->stats();
    std::printf("\nconsole reactions: %llu firewall blocks, %llu SNMP "
                "traps, %llu notifications\n",
                static_cast<unsigned long long>(stats.blocks_issued),
                static_cast<unsigned long long>(stats.snmp_traps),
                static_cast<unsigned long long>(stats.notifications));
    for (const auto addr : pipeline.console()->blocked_sources()) {
      std::printf("  blocked at firewall: %s\n", addr.to_string().c_str());
    }
  }

  std::printf("\nground truth: %zu attacks, %zu detected, %zu missed "
              "(FN ratio %.4f)\n",
              run.attacks, run.true_detections, run.missed_attacks,
              run.fn_ratio);
  return 0;
}
