// Random-stream differential test of StreamTracker against a reference
// tracker kept in a std::unordered_map keyed by the canonical FiveTuple.
// Random SYN/ACK/FIN/RST packets in both directions over a small endpoint
// pool, with expire calls at random times, must leave both trackers with
// the same active, peak and total stream counts and the same per-stream
// records.
#include "netsim/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/rng.hpp"

namespace idseval::netsim {
namespace {

/// The tracker's contract written out over a node-based map.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(SimTime idle_timeout)
      : idle_timeout_(idle_timeout) {}

  const StreamInfo& observe(const Packet& packet) {
    const FiveTuple key = packet.tuple.canonical();
    auto [it, inserted] = streams_.try_emplace(key);
    StreamInfo& info = it->second;
    if (inserted) {
      info.key = key;
      info.first_seen = packet.created;
      info.state = packet.flags.syn ? StreamState::kSynSeen
                                    : StreamState::kEstablished;
      ++total_seen_;
      peak_ = std::max(peak_, streams_.size());
    }
    info.last_seen = packet.created;
    ++info.packets;
    info.bytes += packet.wire_bytes();
    if (packet.flags.rst) {
      info.state = StreamState::kClosed;
    } else if (packet.flags.fin) {
      info.state = info.state == StreamState::kClosing
                       ? StreamState::kClosed
                       : StreamState::kClosing;
    } else if (packet.flags.ack && info.state == StreamState::kSynSeen) {
      info.state = StreamState::kEstablished;
    }
    return info;
  }

  void expire(SimTime now) {
    for (auto it = streams_.begin(); it != streams_.end();) {
      const bool idle = now - it->second.last_seen > idle_timeout_;
      if (idle || it->second.state == StreamState::kClosed) {
        it = streams_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const StreamInfo* find(const FiveTuple& tuple) const {
    const auto it = streams_.find(tuple.canonical());
    return it == streams_.end() ? nullptr : &it->second;
  }

  std::size_t active_streams() const { return streams_.size(); }
  std::size_t peak_streams() const { return peak_; }
  std::uint64_t total_streams_seen() const { return total_seen_; }

 private:
  SimTime idle_timeout_;
  std::unordered_map<FiveTuple, StreamInfo, FiveTupleHash> streams_;
  std::uint64_t total_seen_ = 0;
  std::size_t peak_ = 0;
};

void expect_same_info(const StreamInfo& a, const StreamInfo& b) {
  ASSERT_EQ(a.key, b.key);
  ASSERT_EQ(a.state, b.state);
  ASSERT_EQ(a.first_seen, b.first_seen);
  ASSERT_EQ(a.last_seen, b.last_seen);
  ASSERT_EQ(a.packets, b.packets);
  ASSERT_EQ(a.bytes, b.bytes);
}

FiveTuple random_tuple(util::Rng& rng, std::uint32_t hosts,
                       std::uint16_t ports) {
  FiveTuple t;
  t.src_ip = Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + rng.index(hosts)));
  t.dst_ip = Ipv4(10, 0, 1, static_cast<std::uint8_t>(1 + rng.index(hosts)));
  t.src_port = static_cast<std::uint16_t>(40000 + rng.index(ports));
  t.dst_port = static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 443);
  // Half the packets travel the reverse direction of their session.
  if (rng.chance(0.5)) {
    std::swap(t.src_ip, t.dst_ip);
    std::swap(t.src_port, t.dst_port);
  }
  return t;
}

TcpFlags random_flags(util::Rng& rng) {
  TcpFlags f;
  const double u = rng.uniform();
  if (u < 0.25) {
    f.syn = true;
  } else if (u < 0.35) {
    f.syn = f.ack = true;
  } else if (u < 0.75) {
    f.ack = true;
  } else if (u < 0.88) {
    f.fin = true;
    f.ack = rng.chance(0.5);
  } else if (u < 0.93) {
    f.rst = true;
  }  // else: no flags at all
  return f;
}

void run_differential(std::uint64_t seed, std::size_t packets,
                      std::uint32_t hosts, std::uint16_t ports) {
  const SimTime idle = SimTime::from_ms(40);
  StreamTracker tracker(idle);
  ReferenceTracker ref(idle);
  util::Rng rng(seed);
  std::int64_t now_ns = 0;
  std::size_t expires = 0;
  // An expire exactly one idle timeout after a sampled packet: a stream
  // idle for exactly the timeout must survive it.
  std::int64_t boundary_ns = -1;
  const auto expire_both = [&](SimTime at) {
    tracker.expire(at);
    ref.expire(at);
    ++expires;
  };
  for (std::size_t i = 0; i < packets; ++i) {
    // Times on a 1 us grid, so boundary expiries land on packet times.
    now_ns += static_cast<std::int64_t>(rng.uniform_u64(0, 20)) * 1000;
    if (boundary_ns >= 0 && now_ns >= boundary_ns) {
      expire_both(SimTime::from_ns(boundary_ns));
      boundary_ns = -1;
    }
    const SimTime now = SimTime::from_ns(now_ns);
    if (rng.chance(0.002)) expire_both(now);
    if (boundary_ns < 0 && rng.chance(0.01)) boundary_ns = now_ns + idle.ns();
    Packet p = make_packet(i + 1, 0, now, random_tuple(rng, hosts, ports),
                           std::string(rng.index(200), 'x'),
                           random_flags(rng));
    const StreamInfo& got = tracker.observe(p);
    const StreamInfo& want = ref.observe(p);
    ASSERT_NO_FATAL_FAILURE(expect_same_info(got, want));
    ASSERT_EQ(tracker.active_streams(), ref.active_streams()) << "pkt " << i;
    ASSERT_EQ(tracker.peak_streams(), ref.peak_streams()) << "pkt " << i;
    ASSERT_EQ(tracker.total_streams_seen(), ref.total_streams_seen());
    if (i % 64 == 0) {
      // Lookups by either direction, present or absent.
      const FiveTuple probe = random_tuple(rng, hosts, ports);
      const StreamInfo* a = tracker.find(probe);
      const StreamInfo* b = ref.find(probe);
      ASSERT_EQ(a == nullptr, b == nullptr) << probe.to_string();
      if (a != nullptr) {
        ASSERT_NO_FATAL_FAILURE(expect_same_info(*a, *b));
      }
    }
  }
  // The schedule must have churned the table, not just filled it.
  EXPECT_GT(expires, 10u);
  EXPECT_GT(tracker.total_streams_seen(), tracker.peak_streams());
  EXPECT_GT(tracker.peak_streams(), 100u);
}

TEST(StreamTrackerDifferential, RandomStreamsMatchReferenceTracker) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    ASSERT_NO_FATAL_FAILURE(run_differential(seed, 40'000, 24, 16));
  }
}

TEST(StreamTrackerDifferential, LargeEndpointPoolMatchesReferenceTracker) {
  ASSERT_NO_FATAL_FAILURE(run_differential(77, 150'000, 200, 64));
}

}  // namespace
}  // namespace idseval::netsim
