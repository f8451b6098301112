// LAN switch with forwarding, SPAN port mirroring (how passive network
// IDS sensors see traffic), an optional in-line hook (how an in-line
// load-balancer/IDS induces latency, §2.2), and a firewall-style block
// list that the IDS management console manipulates in response to threats
// ("Firewall Interaction", Table 3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace idseval::netsim {

struct SwitchStats {
  std::uint64_t forwarded = 0;
  std::uint64_t no_route = 0;
  std::uint64_t blocked = 0;
  std::uint64_t mirrored = 0;
};

class Switch {
 public:
  /// SPAN mirror: observes a same-tick arrival batch in one call
  /// (netsim::per_packet adapts a per-packet mirror).
  using MirrorFn = std::function<void(const Packet*, std::size_t)>;
  /// In-line hook: receives the packet and a continuation that resumes
  /// normal forwarding; the hook may delay, drop, or forward immediately.
  using InlineFn =
      std::function<void(const Packet&, std::function<void(const Packet&)>)>;

  explicit Switch(Simulator& sim, std::string name = "switch0");

  /// Registers the egress link toward `addr`.
  void attach(Ipv4 addr, Link* egress);

  /// Ingress entry point: a same-tick arrival run from one uplink, in
  /// FIFO order (a single packet is a batch of one). Mirror fan-out and
  /// stats/telemetry updates happen once per batch; while any source is
  /// blocked, packets are admitted one at a time.
  void receive_batch(const Packet* packets, std::size_t count);

  /// SPAN: every admitted packet is also copied to each mirror, in
  /// registration order.
  void add_mirror_batch(MirrorFn fn) { mirrors_.push_back(std::move(fn)); }
  /// Installs / clears the in-line device hook.
  void set_inline_hook(InlineFn fn) { inline_hook_ = std::move(fn); }

  /// Firewall block list manipulated by IDS consoles.
  void block_source(Ipv4 addr);
  void unblock_source(Ipv4 addr);
  bool is_blocked(Ipv4 addr) const;
  std::size_t blocked_count() const noexcept { return blocked_.size(); }

  const SwitchStats& stats() const noexcept { return stats_; }
  const std::string& name() const noexcept { return name_; }

 private:
  /// Mirrors, then the in-line hook or forwarding, for unblocked packets.
  void admit(const Packet* packets, std::size_t count);
  void forward_batch(const Packet* packets, std::size_t count);

  Simulator& sim_;
  std::string name_;
  std::unordered_map<std::uint32_t, Link*> routes_;
  std::unordered_set<std::uint32_t> blocked_;
  std::vector<MirrorFn> mirrors_;
  InlineFn inline_hook_;
  SwitchStats stats_;
  // Whole-run telemetry (the switch is network infrastructure, never
  // reset between measurement windows).
  telemetry::Counter* tele_mirrored_;
  telemetry::Counter* tele_forwarded_;
  telemetry::Counter* tele_blocked_;
};

}  // namespace idseval::netsim
