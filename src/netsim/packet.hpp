// The simulated network packet. Carries realistic L3/L4 headers plus an
// actual payload string: the paper's first lesson learned (§4) is that an
// IDS testbed must generate packets with realistic *content*, because
// payload-inspecting IDSes behave differently from header-only ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "netsim/address.hpp"
#include "netsim/sim_time.hpp"

namespace idseval::netsim {

/// TCP flag bits (subset sufficient for session modeling and scans).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;

  bool operator==(const TcpFlags&) const = default;
  std::string to_string() const;
};

/// A simulated packet. Copyable; the payload is shared (COW-like) because
/// mirroring duplicates packets at the switch and the IDS pipeline passes
/// them between stages.
struct Packet {
  std::uint64_t id = 0;           ///< Unique per simulation run.
  std::uint64_t flow_id = 0;      ///< Generator-assigned flow identity.
  SimTime created;                ///< Time the source emitted the packet.
  FiveTuple tuple;
  TcpFlags flags;
  std::uint32_t seq = 0;          ///< Sequence number within the flow.
  std::uint32_t header_bytes = 40;
  std::shared_ptr<const std::string> payload;  ///< May be null (pure ctrl).

  std::uint32_t payload_bytes() const noexcept {
    return payload ? static_cast<std::uint32_t>(payload->size()) : 0;
  }
  std::uint32_t wire_bytes() const noexcept {
    return header_bytes + payload_bytes();
  }
  const std::string& payload_view() const noexcept {
    static const std::string kEmpty;
    return payload ? *payload : kEmpty;
  }

  std::string to_string() const;
};

/// Convenience factory keeping payload sharing explicit at call sites.
Packet make_packet(std::uint64_t id, std::uint64_t flow_id, SimTime created,
                   const FiveTuple& tuple, std::string payload,
                   TcpFlags flags = {});

/// Allocation-free variant: attaches an already-interned payload (e.g.
/// from traffic::PayloadPool) without copying the bytes. A null or empty
/// payload yields a pure-control packet.
Packet make_packet(std::uint64_t id, std::uint64_t flow_id, SimTime created,
                   const FiveTuple& tuple,
                   std::shared_ptr<const std::string> payload,
                   TcpFlags flags = {});

/// Adapts a per-packet callback `fn(const Packet&)` to the batch shape
/// `(const Packet*, std::size_t)` every packet hand-off takes (link
/// delivery, switch mirrors, host receivers); the wrapper visits the
/// batch in order.
template <class Fn>
auto per_packet(Fn fn) {
  return [fn = std::move(fn)](const Packet* packets,
                              std::size_t count) mutable {
    for (std::size_t i = 0; i < count; ++i) fn(packets[i]);
  };
}

}  // namespace idseval::netsim
