// Parameterized fuzz of the trace serialization: randomized packets of
// every payload kind (including attack payloads with raw binary content)
// must round-trip byte-exactly, regardless of seed. Canned corpora are
// long-lived artifacts; a lossy format would silently corrupt ground
// truth.
#include <gtest/gtest.h>

#include "attack/emitter.hpp"
#include "traffic/payload.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace idseval::traffic {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

class TraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, RandomizedRoundTrip) {
  util::Rng rng(GetParam());
  Trace trace;
  const int n = 50 + static_cast<int>(rng.uniform_u64(0, 100));
  for (int i = 0; i < n; ++i) {
    FiveTuple t;
    t.src_ip = Ipv4(static_cast<std::uint32_t>(rng.next()));
    t.dst_ip = Ipv4(static_cast<std::uint32_t>(rng.next()));
    t.src_port = static_cast<std::uint16_t>(rng.uniform_u64(0, 65535));
    t.dst_port = static_cast<std::uint16_t>(rng.uniform_u64(0, 65535));
    t.proto = rng.chance(0.5) ? netsim::Protocol::kTcp
                              : netsim::Protocol::kUdp;

    std::string payload;
    if (rng.chance(0.2)) {
      // Raw binary payload, all byte values possible.
      payload.resize(rng.uniform_u64(0, 300));
      for (auto& ch : payload) {
        ch = static_cast<char>(rng.uniform_u64(0, 255));
      }
    } else {
      const auto kind = static_cast<PayloadKind>(rng.index(8));
      payload = synthesize(kind, 32 + rng.index(400), rng);
    }

    netsim::TcpFlags flags;
    flags.syn = rng.chance(0.3);
    flags.ack = rng.chance(0.5);
    flags.fin = rng.chance(0.2);
    flags.rst = rng.chance(0.1);

    Packet p = netsim::make_packet(static_cast<std::uint64_t>(i),
                                   rng.uniform_u64(1, 20), SimTime::zero(),
                                   t, std::move(payload), flags);
    p.seq = static_cast<std::uint32_t>(rng.next());
    trace.append(SimTime::from_ns(static_cast<std::int64_t>(
                     rng.uniform_u64(0, 60'000'000'000ULL))),
                 p);
  }

  const Trace copy = Trace::deserialize(trace.serialize());
  ASSERT_EQ(copy.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.entries()[i];
    const auto& b = copy.entries()[i];
    ASSERT_EQ(a.offset, b.offset) << "entry " << i;
    ASSERT_EQ(a.packet.flow_id, b.packet.flow_id);
    ASSERT_EQ(a.packet.tuple, b.packet.tuple);
    ASSERT_EQ(a.packet.flags, b.packet.flags);
    ASSERT_EQ(a.packet.seq, b.packet.seq);
    ASSERT_EQ(a.packet.payload_view(), b.packet.payload_view());
  }
  // Double round-trip is a fixed point.
  EXPECT_EQ(copy.serialize(), trace.serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(TraceFuzz, AttackCorpusRoundTrips) {
  // Every attack kind's real emitted packets survive serialization.
  netsim::Simulator sim;
  netsim::Network net(sim);
  net.add_host("v", Ipv4(10, 0, 0, 2));
  net.add_host("i", Ipv4(10, 0, 0, 3));
  net.add_external_host("a", Ipv4(198, 51, 100, 1));
  TransactionLedger ledger;
  attack::AttackEmitter emitter(sim, net, ledger, 5);
  Trace trace;
  net.lan_switch().add_mirror_batch(netsim::per_packet([&](const Packet& p) {
    trace.append_absolute(sim.now(), p);
  }));
  SimTime when = SimTime::from_ms(1);
  for (const auto& t : attack::all_attack_traits()) {
    emitter.launch(t.kind,
                   t.insider ? Ipv4(10, 0, 0, 3) : Ipv4(198, 51, 100, 1),
                   Ipv4(10, 0, 0, 2), when);
    when += SimTime::from_sec(1);
  }
  sim.run_until();
  ASSERT_GT(trace.size(), 100u);
  const Trace copy = Trace::deserialize(trace.serialize());
  EXPECT_EQ(copy.serialize(), trace.serialize());
}

}  // namespace
}  // namespace idseval::traffic
