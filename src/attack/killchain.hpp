// Attack campaigns: declarative, timed scripts of attack launches mixed
// into background traffic. A campaign plus a seed fully determines the
// injected threat picture, giving the repeatable "canned data with known
// attack content" the methodology needs.
//
// A KillChain is an ordered list of stages; each stage is a set of
// AttackSteps whose times are offsets from the stage's start. A flat
// script (mixed, of_kinds) is one unlabelled stage: every attack drops
// independently, and each transaction keeps its kind's default stage
// from AttackTraits. A kill chain (preset: recon → exploit → lateral
// movement → exfil) labels its stages, and its ground truth carries the
// stage each step actually ran in, on top of the per-kind ATT&CK
// technique tags. Later stages launch only after every flow of the
// earlier stage has finished emitting (emitters schedule eagerly, so a
// stage's end time is known at launch), and lateral/exfil stages can
// pivot the attacker pool onto the internal hosts compromised earlier in
// the chain.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/emitter.hpp"
#include "attack/kind.hpp"
#include "netsim/address.hpp"
#include "netsim/sim_time.hpp"
#include "util/flat_map.hpp"

namespace idseval::attack {

struct AttackStep {
  netsim::SimTime when;
  AttackKind kind;
  /// Index into the attacker pool (external hosts, except insider attacks
  /// which index the internal pool).
  std::size_t attacker_index = 0;
  /// Index into the victim (internal) pool.
  std::size_t victim_index = 0;
};

/// One stage of a campaign. Step `when` values are offsets from the
/// stage's (dynamic) start time, not absolute simulation times.
struct ChainStage {
  /// Kill-chain label for the stage's transactions; unset for a flat
  /// script, whose transactions keep their kind's default stage.
  std::optional<Stage> stage;
  std::vector<AttackStep> steps;
  /// Quiet dwell time between this stage's last emitted packet and the
  /// next stage's first launch.
  netsim::SimTime gap_after = netsim::SimTime::from_ms(500);
  /// Draw this stage's attackers from the hosts compromised by earlier
  /// stages (falls back to the step's natural pool when nothing has been
  /// compromised yet).
  bool pivot = false;
  /// Victims of this stage join the compromised pool for later pivots.
  bool compromises = false;
};

/// Record of one executed stage, for logs and tests.
struct StageLaunch {
  std::optional<Stage> stage;
  std::size_t steps = 0;
  netsim::SimTime begin;  ///< First launch time of the stage.
  netsim::SimTime end;    ///< Last scheduled packet across its flows.
};

class KillChain {
 public:
  KillChain() = default;
  explicit KillChain(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void add_stage(ChainStage stage) { stages_.push_back(std::move(stage)); }
  const std::vector<ChainStage>& stages() const noexcept { return stages_; }
  std::size_t size() const noexcept { return stages_.size(); }
  std::size_t total_steps() const noexcept;

  /// Counts per attack kind across every stage (kind-ordered iteration).
  util::FlatMap<AttackKind, std::size_t> histogram() const;

  /// Executes the campaign: stage k+1's base time is stage k's last
  /// scheduled packet plus the stage gap. Pivoting stages draw attackers
  /// from the compromised-host pool (victims of earlier `compromises`
  /// stages, first-touch order); insider kinds fall back to the internal
  /// pool and everything else to `external_attackers` when no host has
  /// been compromised yet. Stage labels ride into the transaction ledger
  /// via the emitter's stage override, and each labelled stage counts its
  /// launches in `attack.stage.<stage>.launched`; an unlabelled stage
  /// does neither. Returns launched flow ids in launch order; per-stage
  /// timing lands in `last_run()`.
  std::vector<std::uint64_t> run(
      AttackEmitter& emitter,
      const std::vector<netsim::Ipv4>& external_attackers,
      const std::vector<netsim::Ipv4>& internal_hosts,
      netsim::SimTime start) const;

  /// Per-stage launch record of the most recent run().
  const std::vector<StageLaunch>& last_run() const noexcept {
    return last_run_;
  }

  /// Builds a named preset chain, deterministic in `seed`. Step times
  /// within each stage are uniform in [0, stage_span). Known presets:
  ///   "intrusion"    — recon / exploit (web + brute-force) /
  ///                    lateral (pivot) / exfil (pivot); the classic
  ///                    enterprise chain for rt_cluster-style networks.
  ///   "ics-takeover" — recon / exploit (novel RPC + brute-force) /
  ///                    lateral (pivot) / exfil (pivot); tuned for the
  ///                    `ics` profile where the exploit surface is the
  ///                    control service, not the web tier.
  ///   "canbus-storm" — recon / exploit (novel + SYN-flood bus storm) /
  ///                    lateral (pivot) / exfil (pivot); pairs with the
  ///                    `canbus` profile's high-rate tiny-frame floor.
  /// Throws std::invalid_argument for unknown names.
  static KillChain preset(const std::string& name, std::uint64_t seed,
                          netsim::SimTime stage_span,
                          std::size_t attacker_pool = 4,
                          std::size_t victim_pool = 8);

  /// Names preset() accepts, for CLI help and validation.
  static const std::vector<std::string>& preset_names();

  /// Builds a flat chain: `per_kind` instances of every attack kind,
  /// launch times uniform in [window_start, window_end), attacker/victim
  /// indices random, steps sorted by time, all in one unlabelled stage.
  /// Deterministic in `seed`.
  static KillChain mixed(std::size_t per_kind, netsim::SimTime window_start,
                         netsim::SimTime window_end, std::uint64_t seed,
                         std::size_t attacker_pool = 4,
                         std::size_t victim_pool = 8);

  /// Builds a flat chain containing only the given kinds.
  static KillChain of_kinds(const std::vector<AttackKind>& kinds,
                            std::size_t per_kind,
                            netsim::SimTime window_start,
                            netsim::SimTime window_end, std::uint64_t seed,
                            std::size_t attacker_pool = 4,
                            std::size_t victim_pool = 8);

 private:
  std::string name_;
  std::vector<ChainStage> stages_;
  mutable std::vector<StageLaunch> last_run_;
};

}  // namespace idseval::attack
