// Attack traffic emitters: generate the packet-level realization of each
// AttackKind, inject it through the Network, and record labeled
// transactions in the ledger (the canned-data-with-known-content approach
// §4 recommends for observing false negatives).
#pragma once

#include <cstdint>

#include <memory>

#include "attack/kind.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "traffic/ledger.hpp"
#include "traffic/payload_pool.hpp"
#include "util/rng.hpp"

namespace idseval::attack {

struct EmitStats {
  std::uint64_t attacks_launched = 0;
  std::uint64_t packets_emitted = 0;
};

class AttackEmitter {
 public:
  /// `pool` may be shared with the background generator of the same
  /// simulation; when null the emitter owns a private pool derived from
  /// `seed`. Attack payloads are interned per content family, so the
  /// published signature bytes each family carries survive pooling.
  AttackEmitter(netsim::Simulator& sim, netsim::Network& net,
                traffic::TransactionLedger& ledger, std::uint64_t seed,
                traffic::PayloadPool* pool = nullptr);

  /// Schedules one attack instance starting at `when` from `attacker`
  /// against `victim`. Returns the flow id of the attack's primary
  /// transaction (scans/floods create one logical transaction even though
  /// they touch many ports).
  std::uint64_t launch(AttackKind kind, netsim::Ipv4 attacker,
                       netsim::Ipv4 victim, netsim::SimTime when);

  /// Flood kinds emit same-tick trains of `len` packets (gaps drawn at
  /// train boundaries and scaled by `len`, keeping the mean rate), so
  /// floods land on the coalesced same-tick delivery path as bulk
  /// traffic does. Default 1 = the legacy
  /// packet-per-tick emission (identical RNG draw sequence).
  void set_flood_train(std::uint32_t len) noexcept {
    flood_train_ = len == 0 ? 1 : len;
  }
  std::uint32_t flood_train() const noexcept { return flood_train_; }

  /// Kill-chain campaigns label transactions with the stage a step runs
  /// in; -1 (default) records the kind's default stage from AttackTraits.
  void set_stage_override(int stage) noexcept { stage_override_ = stage; }
  int stage_override() const noexcept { return stage_override_; }

  /// Scheduled time of the last packet of the most recent launch(). Every
  /// emitter draws its whole schedule eagerly at launch() time, so this is
  /// the attack's end time — kill chains use it to gate the next stage.
  netsim::SimTime last_launch_end() const noexcept {
    return last_launch_end_;
  }

  const EmitStats& stats() const noexcept { return stats_; }

 private:
  std::uint64_t emit_port_scan(netsim::Ipv4 a, netsim::Ipv4 v,
                               netsim::SimTime t);
  std::uint64_t emit_syn_flood(netsim::Ipv4 a, netsim::Ipv4 v,
                               netsim::SimTime t);
  std::uint64_t emit_brute_force(netsim::Ipv4 a, netsim::Ipv4 v,
                                 netsim::SimTime t);
  std::uint64_t emit_web_exploit(netsim::Ipv4 a, netsim::Ipv4 v,
                                 netsim::SimTime t);
  std::uint64_t emit_smtp_worm(netsim::Ipv4 a, netsim::Ipv4 v,
                               netsim::SimTime t);
  std::uint64_t emit_novel_exploit(netsim::Ipv4 a, netsim::Ipv4 v,
                                   netsim::SimTime t);
  std::uint64_t emit_dns_tunnel(netsim::Ipv4 a, netsim::Ipv4 v,
                                netsim::SimTime t);
  std::uint64_t emit_insider(netsim::Ipv4 a, netsim::Ipv4 v,
                             netsim::SimTime t);
  std::uint64_t emit_evasive_exploit(netsim::Ipv4 a, netsim::Ipv4 v,
                                     netsim::SimTime t);

  /// Opens a labeled transaction and returns its flow id.
  std::uint64_t open_transaction(AttackKind kind,
                                 const netsim::FiveTuple& tuple,
                                 netsim::SimTime when);
  /// Schedules a single packet emission at `when`. A null payload sends
  /// a pure-control packet (SYN/FIN probes).
  void send_at(netsim::SimTime when, std::uint64_t flow_id,
               netsim::FiveTuple tuple, traffic::PayloadPool::Ref payload,
               netsim::TcpFlags flags, std::uint32_t seq);

  netsim::Simulator& sim_;
  netsim::Network& net_;
  traffic::TransactionLedger& ledger_;
  util::Rng rng_;
  std::unique_ptr<traffic::PayloadPool> owned_pool_;
  traffic::PayloadPool* pool_;
  EmitStats stats_;
  std::uint32_t flood_train_ = 1;
  int stage_override_ = -1;
  netsim::SimTime last_launch_end_{};
};

}  // namespace idseval::attack
