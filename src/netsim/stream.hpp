// TCP-session tracking over the packet stream. Load balancers must be
// TCP-session aware to keep a connection pinned to one sensor (§2.2), and
// two Table 3 metrics are denominated in "# of simultaneous TCP streams".
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/address.hpp"
#include "netsim/flow_tuple.hpp"
#include "netsim/packet.hpp"
#include "netsim/sim_time.hpp"

namespace idseval::netsim {

enum class StreamState : std::uint8_t {
  kSynSeen,
  kEstablished,
  kClosing,
  kClosed,
};

struct StreamInfo {
  FiveTuple key;                 ///< Canonical (direction-less) tuple.
  StreamState state = StreamState::kSynSeen;
  SimTime first_seen;
  SimTime last_seen;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Observes packets and maintains per-session state with idle expiry.
/// Sessions live in a packed-key FlowMap keyed by the canonical tuple.
/// The table is deliberately not bound to the flowtable.* telemetry
/// counters: they feed campaign rows and util.flowtable.probes_per_lookup,
/// which stay comparable across versions only while the set of bound
/// tables is fixed.
class StreamTracker {
 public:
  explicit StreamTracker(SimTime idle_timeout = SimTime::from_sec(60));

  /// Feeds one packet; returns the (possibly new) stream record.
  const StreamInfo& observe(const Packet& packet);

  /// Drops sessions idle beyond the timeout relative to `now`.
  void expire(SimTime now);

  std::size_t active_streams() const noexcept { return streams_.size(); }
  std::uint64_t total_streams_seen() const noexcept { return total_seen_; }
  /// Highest simultaneous stream count observed so far.
  std::size_t peak_streams() const noexcept { return peak_; }

  const StreamInfo* find(const FiveTuple& tuple) const;

 private:
  SimTime idle_timeout_;
  FlowMap<StreamInfo> streams_;
  std::vector<FlowTuple> dead_;  ///< expire's scratch list, reused.
  std::uint64_t total_seen_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace idseval::netsim
