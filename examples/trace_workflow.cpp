// The canned-data workflow (§4, lesson #2): the false-negative ratio is
// only observable when the test network replays data with KNOWN attack
// content. This example records an attack corpus from a switch mirror,
// serializes it (the "canned" artifact you would keep under version
// control), replays it against two products, and reports per-kind
// detection — including a time-compressed replay as a load test with
// byte-identical content.
#include <cstdio>

#include "attack/emitter.hpp"
#include "ids/pipeline.hpp"
#include "products/catalog.hpp"
#include "traffic/trace.hpp"

using namespace idseval;
using netsim::Ipv4;
using netsim::SimTime;

namespace {

/// Records one instance of every attack kind into a trace.
traffic::Trace record_corpus() {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("victim-a", Ipv4(10, 0, 0, 2));
  net.add_host("victim-b", Ipv4(10, 0, 0, 3));
  net.add_external_host("attacker", Ipv4(198, 51, 100, 1));
  traffic::TransactionLedger ledger;
  attack::AttackEmitter emitter(sim, net, ledger, /*seed=*/7);

  traffic::Trace trace;
  net.lan_switch().add_mirror_batch(
      netsim::per_packet([&](const netsim::Packet& p) {
        trace.append_absolute(sim.now(), p);
      }));

  SimTime when = SimTime::from_ms(100);
  for (const auto& traits : attack::all_attack_traits()) {
    const Ipv4 attacker =
        traits.insider ? Ipv4(10, 0, 0, 3) : Ipv4(198, 51, 100, 1);
    emitter.launch(traits.kind, attacker, Ipv4(10, 0, 0, 2), when);
    when += SimTime::from_sec(2);
  }
  sim.run_until();
  return trace;
}

/// Replays the corpus against a product; returns raised alert count.
std::size_t replay_against(const traffic::Trace& corpus,
                           products::ProductId id, double time_scale) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("victim-a", Ipv4(10, 0, 0, 2));
  net.add_host("victim-b", Ipv4(10, 0, 0, 3));
  net.add_external_host("attacker", Ipv4(198, 51, 100, 1));

  ids::Pipeline pipeline(sim, net,
                         products::product(id).make_config(0.6));
  pipeline.attach(products::product(id).deploys_host_agents
                      ? std::vector<Ipv4>{Ipv4(10, 0, 0, 2),
                                          Ipv4(10, 0, 0, 3)}
                      : std::vector<Ipv4>{});
  pipeline.set_learning(false);

  corpus.replay(sim, net, SimTime::from_ms(10), time_scale);
  sim.run_until();
  return pipeline.monitor().log().size();
}

}  // namespace

int main() {
  // 1. Record and serialize the corpus.
  const traffic::Trace corpus = record_corpus();
  const std::string canned = corpus.serialize();
  std::printf("recorded corpus: %zu packets, %.1fs duration, %zu bytes "
              "serialized\n",
              corpus.size(), corpus.duration().sec(), canned.size());

  // 2. Prove the serialization round-trips (this is what you'd check in).
  const traffic::Trace reloaded = traffic::Trace::deserialize(canned);
  std::printf("round-trip: %zu packets (%s)\n\n", reloaded.size(),
              reloaded.size() == corpus.size() ? "ok" : "MISMATCH");

  // 3. Replay against a signature product and a hybrid product.
  for (const auto id : {products::ProductId::kSentryNid,
                        products::ProductId::kAgentSwarm}) {
    const std::size_t alerts = replay_against(reloaded, id, 1.0);
    std::printf("%-12s alerts on corpus (%zu attack kinds): %zu\n",
                products::to_string(id).c_str(), attack::kAttackKindCount,
                alerts);
  }

  // 4. Same bytes, 10x faster — a load test with identical content.
  const std::size_t fast_alerts =
      replay_against(reloaded, products::ProductId::kSentryNid, 0.1);
  std::printf("\nSentryNID alerts at 10x replay speed: %zu\n", fast_alerts);
  std::printf("(identical content at higher rate: any drop in alerts is "
              "pure load effect, not traffic variation)\n");
  return 0;
}
