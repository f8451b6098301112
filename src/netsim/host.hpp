// Simulated host with a simple CPU budget model. Host-based IDS agents
// charge work against the host's CPU; the fraction consumed is exactly
// the paper's "Operational Performance Impact" metric (Table 3), and the
// 3-5% nominal / ~20% C2-audit logging overhead discussion in §2.1.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>
#include <string>

#include "netsim/address.hpp"
#include "netsim/packet.hpp"
#include "netsim/sim_time.hpp"

namespace idseval::netsim {

class Host {
 public:
  /// Delivery observer: a same-tick arrival run off the downlink, FIFO
  /// order (netsim::per_packet adapts a per-packet observer).
  using ReceiveFn = std::function<void(const Packet*, std::size_t)>;

  Host(std::string name, Ipv4 address, double cpu_ops_per_sec = 1e9);

  const std::string& name() const noexcept { return name_; }
  Ipv4 address() const noexcept { return address_; }

  /// Registers a delivery observer; all observers see every packet in
  /// registration order (production stack, host IDS agent, ...).
  void add_receiver_batch(ReceiveFn fn) {
    receivers_.push_back(std::move(fn));
  }
  /// Delivers a same-tick batch (a single packet is a batch of one) to
  /// every observer in turn.
  void deliver_batch(const Packet* packets, std::size_t count);

  /// --- CPU accounting -------------------------------------------------
  /// Components charge abstract "ops". Utilization is reported against a
  /// window established by begin_accounting()/end_accounting().
  void charge_ops(double ops, bool ids_work) noexcept;
  void begin_accounting(SimTime now) noexcept;
  void end_accounting(SimTime now) noexcept;

  double cpu_ops_per_sec() const noexcept { return cpu_ops_per_sec_; }
  /// Fraction of the host CPU consumed by IDS components in the window.
  double ids_cpu_fraction() const noexcept;
  /// Fraction consumed by everything (production + IDS) in the window.
  double total_cpu_fraction() const noexcept;
  std::uint64_t packets_received() const noexcept { return received_; }

 private:
  std::string name_;
  Ipv4 address_;
  double cpu_ops_per_sec_;

  std::vector<ReceiveFn> receivers_;
  std::uint64_t received_ = 0;

  double ids_ops_ = 0.0;
  double other_ops_ = 0.0;
  SimTime window_start_;
  SimTime window_end_;
  bool accounting_open_ = false;
};

}  // namespace idseval::netsim
