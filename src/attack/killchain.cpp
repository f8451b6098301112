#include "attack/killchain.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::attack {

using netsim::Ipv4;
using netsim::SimTime;

std::size_t KillChain::total_steps() const noexcept {
  std::size_t n = 0;
  for (const auto& stage : stages_) n += stage.steps.size();
  return n;
}

util::FlatMap<AttackKind, std::size_t> KillChain::histogram() const {
  util::FlatMap<AttackKind, std::size_t> counts;
  for (const auto& stage : stages_) {
    for (const auto& step : stage.steps) ++counts[step.kind];
  }
  return counts;
}

std::vector<std::uint64_t> KillChain::run(
    AttackEmitter& emitter, const std::vector<Ipv4>& external_attackers,
    const std::vector<Ipv4>& internal_hosts, SimTime start) const {
  if (internal_hosts.empty()) {
    throw std::invalid_argument("KillChain::run: no internal hosts");
  }
  last_run_.clear();
  last_run_.reserve(stages_.size());
  std::vector<std::uint64_t> flows;
  flows.reserve(total_steps());
  // Hosts compromised so far, in first-touch order (deterministic — the
  // pivot pool's indexing must not depend on container hashing).
  std::vector<Ipv4> compromised;

  SimTime stage_base = start;
  for (const ChainStage& cs : stages_) {
    emitter.set_stage_override(cs.stage ? static_cast<int>(*cs.stage) : -1);
    StageLaunch rec;
    rec.stage = cs.stage;
    rec.steps = cs.steps.size();
    rec.begin = stage_base;
    SimTime stage_end = stage_base;
    bool first = true;
    for (const AttackStep& step : cs.steps) {
      const bool insider = traits(step.kind).insider;
      const std::vector<Ipv4>* pool = nullptr;
      if (cs.pivot && !compromised.empty()) {
        pool = &compromised;
      } else {
        pool = insider ? &internal_hosts : &external_attackers;
      }
      if (pool->empty()) {
        throw std::invalid_argument("KillChain::run: empty attacker pool");
      }
      const Ipv4 attacker = (*pool)[step.attacker_index % pool->size()];
      Ipv4 victim =
          internal_hosts[step.victim_index % internal_hosts.size()];
      if (victim == attacker) {
        victim =
            internal_hosts[(step.victim_index + 1) % internal_hosts.size()];
      }
      const SimTime when = stage_base + step.when;
      if (first || when < rec.begin) {
        rec.begin = when;
        first = false;
      }
      flows.push_back(emitter.launch(step.kind, attacker, victim, when));
      if (emitter.last_launch_end() > stage_end) {
        stage_end = emitter.last_launch_end();
      }
      if (cs.compromises &&
          std::find(compromised.begin(), compromised.end(), victim) ==
              compromised.end()) {
        compromised.push_back(victim);
      }
    }
    if (cs.stage && !cs.steps.empty()) {
      telemetry::bump(
          telemetry::counter_handle(
              util::cat("attack.stage.", to_string(*cs.stage), ".launched")),
          cs.steps.size());
    }
    rec.end = stage_end;
    last_run_.push_back(rec);
    // The next stage waits for this stage's flows to finish emitting,
    // then dwells for the configured gap.
    stage_base = stage_end + cs.gap_after;
  }
  emitter.set_stage_override(-1);
  return flows;
}

namespace {

AttackStep draw_step(util::Rng& rng, AttackKind kind, SimTime window_start,
                     double span, std::size_t attacker_pool,
                     std::size_t victim_pool) {
  AttackStep step;
  step.when = window_start + SimTime::from_sec(rng.uniform(0.0, span));
  step.kind = kind;
  step.attacker_index = rng.index(std::max<std::size_t>(1, attacker_pool));
  step.victim_index = rng.index(std::max<std::size_t>(1, victim_pool));
  return step;
}

// Launch order by time keeps logs readable; emitters don't require it.
void sort_by_time(std::vector<AttackStep>& steps) {
  std::sort(steps.begin(), steps.end(),
            [](const AttackStep& a, const AttackStep& b) {
              return a.when < b.when;
            });
}

struct StageSpec {
  Stage stage;
  std::vector<AttackKind> kinds;
  bool pivot;
  bool compromises;
};

std::vector<StageSpec> preset_spec(const std::string& name) {
  // Every preset follows the canonical recon → exploit → lateral → exfil
  // arc; they differ in the exploit surface matched to the environment.
  if (name == "intrusion") {
    return {
        {Stage::kRecon, {AttackKind::kPortScan}, false, false},
        {Stage::kExploit,
         {AttackKind::kWebExploit, AttackKind::kBruteForceLogin},
         false, true},
        {Stage::kLateral, {AttackKind::kInsiderMasquerade}, true, true},
        {Stage::kExfil, {AttackKind::kDnsTunnel}, true, false},
    };
  }
  if (name == "ics-takeover") {
    // ICS enclaves have no web tier: initial access goes through the
    // control/RPC service (novel exploit) and operator credentials.
    return {
        {Stage::kRecon, {AttackKind::kPortScan}, false, false},
        {Stage::kExploit,
         {AttackKind::kNovelExploit, AttackKind::kBruteForceLogin},
         false, true},
        {Stage::kLateral, {AttackKind::kInsiderMasquerade}, true, true},
        {Stage::kExfil, {AttackKind::kDnsTunnel}, true, false},
    };
  }
  if (name == "canbus-storm") {
    // Bus takeover: a novel frame-level exploit plus a flood that storms
    // the tiny-frame bus, then pivots to peers sharing the segment.
    return {
        {Stage::kRecon, {AttackKind::kPortScan}, false, false},
        {Stage::kExploit,
         {AttackKind::kNovelExploit, AttackKind::kSynFlood}, false, true},
        {Stage::kLateral, {AttackKind::kInsiderMasquerade}, true, true},
        {Stage::kExfil, {AttackKind::kDnsTunnel}, true, false},
    };
  }
  throw std::invalid_argument("KillChain::preset: unknown preset \"" +
                              name + "\"");
}

}  // namespace

KillChain KillChain::preset(const std::string& name, std::uint64_t seed,
                            SimTime stage_span, std::size_t attacker_pool,
                            std::size_t victim_pool) {
  const std::vector<StageSpec> spec = preset_spec(name);
  util::Rng rng(seed);
  KillChain chain(name);
  const double span = stage_span.sec();
  for (const StageSpec& s : spec) {
    ChainStage cs;
    cs.stage = s.stage;
    cs.pivot = s.pivot;
    cs.compromises = s.compromises;
    for (const AttackKind kind : s.kinds) {
      cs.steps.push_back(draw_step(rng, kind, SimTime::zero(), span,
                                   attacker_pool, victim_pool));
    }
    sort_by_time(cs.steps);
    chain.add_stage(std::move(cs));
  }
  return chain;
}

const std::vector<std::string>& KillChain::preset_names() {
  static const std::vector<std::string> kNames = {
      "intrusion", "ics-takeover", "canbus-storm"};
  return kNames;
}

KillChain KillChain::mixed(std::size_t per_kind, SimTime window_start,
                           SimTime window_end, std::uint64_t seed,
                           std::size_t attacker_pool,
                           std::size_t victim_pool) {
  std::vector<AttackKind> kinds;
  for (const auto& t : all_attack_traits()) kinds.push_back(t.kind);
  return of_kinds(kinds, per_kind, window_start, window_end, seed,
                  attacker_pool, victim_pool);
}

KillChain KillChain::of_kinds(const std::vector<AttackKind>& kinds,
                              std::size_t per_kind, SimTime window_start,
                              SimTime window_end, std::uint64_t seed,
                              std::size_t attacker_pool,
                              std::size_t victim_pool) {
  if (window_end < window_start) {
    throw std::invalid_argument("KillChain: window_end < window_start");
  }
  util::Rng rng(seed);
  ChainStage flat;
  const double span = (window_end - window_start).sec();
  for (const AttackKind kind : kinds) {
    for (std::size_t i = 0; i < per_kind; ++i) {
      flat.steps.push_back(draw_step(rng, kind, window_start, span,
                                     attacker_pool, victim_pool));
    }
  }
  sort_by_time(flat.steps);
  KillChain chain;
  chain.add_stage(std::move(flat));
  return chain;
}

}  // namespace idseval::attack
