// Transaction ledger: the ground-truth record of every flow injected into
// the testbed. Transactions are the denominator |T| in the paper's error
// ratios (Figure 3): FP = |D - A| / |T|, FN = |A - D| / |T|, where A is
// the set of labeled attack transactions and D the set the IDS flagged.
// The ledger is invisible to IDS components by construction — only the
// harness reads it when scoring.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netsim/address.hpp"
#include "netsim/sim_time.hpp"
#include "telemetry/registry.hpp"
#include "util/flow_table.hpp"

namespace idseval::traffic {

struct Transaction {
  std::uint64_t flow_id = 0;
  netsim::FiveTuple tuple;
  netsim::SimTime start;
  netsim::SimTime end;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  bool is_attack = false;
  /// Attack kind id (attack::AttackKind cast to int); -1 for benign.
  int attack_kind = -1;
  /// Kill-chain stage id (attack::Stage cast to int); -1 for benign or
  /// flat scenarios predating campaigns (scorers fall back to the kind's
  /// default stage from AttackTraits).
  int attack_stage = -1;
};

class TransactionLedger {
 public:
  TransactionLedger();

  /// Opens a transaction. Duplicate flow ids are rejected.
  Transaction& begin(std::uint64_t flow_id, const netsim::FiveTuple& tuple,
                     netsim::SimTime start, bool is_attack = false,
                     int attack_kind = -1, int attack_stage = -1);

  /// Accounts one emitted packet against the transaction.
  void touch(std::uint64_t flow_id, netsim::SimTime when,
             std::uint64_t bytes);
  /// Hash-free variant for hot emit loops: `by_flow_`'s values live in a
  /// stable slab, so the Transaction& from begin() stays valid across
  /// later inserts and callers may cache it.
  static void touch(Transaction& txn, netsim::SimTime when,
                    std::uint64_t bytes) noexcept {
    ++txn.packets;
    txn.bytes += bytes;
    if (when > txn.end) txn.end = when;
  }

  const Transaction* find(std::uint64_t flow_id) const;
  bool is_attack(std::uint64_t flow_id) const;

  std::size_t size() const noexcept { return order_.size(); }
  std::size_t attack_count() const noexcept { return attacks_; }
  std::size_t benign_count() const noexcept { return size() - attacks_; }

  /// Stable iteration in creation order.
  std::vector<const Transaction*> all() const;
  std::vector<const Transaction*> attacks() const;

 private:
  util::FlowTable<std::uint64_t, Transaction> by_flow_;
  std::vector<std::uint64_t> order_;
  std::size_t attacks_ = 0;
};

}  // namespace idseval::traffic
