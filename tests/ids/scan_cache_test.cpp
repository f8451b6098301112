// Interned-payload scan cache (ids/scan_cache.hpp): the memo must be a
// pure optimization — detections AND pre-gate evidence byte-identical
// with the cache on or off — while actually short-circuiting repeated
// payload scans. Covers the PayloadMemo container (pinning, capacity),
// the entropy memo in the anomaly engine, and the boundary-limited
// reassembly merge in the signature engine (a pattern straddling the
// packet boundary plus the same pattern fully inside the payload must
// deduplicate exactly as the legacy full rescan did).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/scan_cache.hpp"
#include "ids/signature_engine.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

using PayloadRef = std::shared_ptr<const std::string>;

PayloadRef intern(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

Packet shared_packet(std::uint64_t flow, std::uint32_t seq, PayloadRef ref,
                     std::uint16_t dst_port = netsim::ports::kHttp) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = 4000;
  t.dst_port = dst_port;
  Packet p = netsim::make_packet(flow * 1000 + seq, flow, SimTime::zero(),
                                 t, std::move(ref));
  p.seq = seq;
  return p;
}

/// Records every pre-gate observation so cached and legacy engines can
/// be compared on the full evidence stream, not just gated detections.
struct RecordingSink : EvidenceSink {
  struct Obs {
    std::uint64_t flow;
    EvidenceChannel channel;
    double strength;
    double critical;
    bool strict;
    bool operator==(const Obs&) const = default;
  };
  std::vector<Obs> observations;
  void observe(std::uint64_t flow_id, EvidenceChannel channel,
               double strength, double critical_sensitivity,
               bool strict_trigger) override {
    observations.push_back(
        Obs{flow_id, channel, strength, critical_sensitivity, strict_trigger});
  }
};

void expect_same_detections(const std::vector<Detection>& a,
                            const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow_id, b[i].flow_id) << i;
    EXPECT_EQ(a[i].rule, b[i].rule) << i;
    EXPECT_EQ(a[i].when.ns(), b[i].when.ns()) << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << i;
    EXPECT_EQ(a[i].severity, b[i].severity) << i;
    EXPECT_EQ(a[i].method, b[i].method) << i;
  }
}

// --- PayloadMemo container ------------------------------------------------

TEST(ScanCacheTest, MemoStoresFindsAndCounts) {
  PayloadMemo<int> memo;
  const PayloadRef p = intern("hello");
  EXPECT_EQ(memo.find(p), nullptr);  // miss
  EXPECT_EQ(memo.stats().misses, 1u);

  const int* stored = memo.store(p, 42);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, 42);
  const int* hit = memo.find(p);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(memo.stats().hits, 1u);

  memo.credit_saved(p->size());
  EXPECT_EQ(memo.stats().bytes_saved, 5u);
  EXPECT_DOUBLE_EQ(memo.stats().hit_ratio(), 0.5);
}

TEST(ScanCacheTest, MemoPinsThePayloadAgainstAddressReuse) {
  // The entry must keep the string alive: if the caller drops its ref,
  // the allocator could otherwise hand the same address to a different
  // payload and a later lookup would return stale results.
  PayloadMemo<int> memo;
  PayloadRef p = intern("pinned");
  const long before = p.use_count();
  memo.store(p, 7);
  EXPECT_EQ(p.use_count(), before + 1);
  const std::string* raw = p.get();
  p.reset();  // memo's pin must keep the string alive
  EXPECT_EQ(*raw, "pinned");
  memo.clear();  // releases the pin
  EXPECT_EQ(memo.size(), 0u);
}

TEST(ScanCacheTest, MemoCapacityBoundsPopulation) {
  PayloadMemo<int> memo(/*capacity=*/2);
  const PayloadRef a = intern("a");
  const PayloadRef b = intern("b");
  const PayloadRef c = intern("c");
  EXPECT_NE(memo.store(a, 1), nullptr);
  EXPECT_NE(memo.store(b, 2), nullptr);
  EXPECT_EQ(memo.store(c, 3), nullptr);  // full: scanned uncached forever
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(c), nullptr);
  ASSERT_NE(memo.find(a), nullptr);  // earlier entries unaffected
}

TEST(ScanCacheTest, ReserveCapacityRaisesButNeverLowers) {
  // Adaptive PayloadPool growth raises the memo ceiling by its headroom;
  // the raise must be monotonic — entries are already pinned, so a lower
  // request is refused rather than evicting.
  PayloadMemo<int> memo(/*capacity=*/2);
  EXPECT_EQ(memo.capacity(), 2u);
  memo.reserve_capacity(1);
  EXPECT_EQ(memo.capacity(), 2u);
  memo.reserve_capacity(4);
  EXPECT_EQ(memo.capacity(), 4u);

  const PayloadRef a = intern("ra");
  const PayloadRef b = intern("rb");
  const PayloadRef c = intern("rc");
  const PayloadRef d = intern("rd");
  const PayloadRef e = intern("re");
  EXPECT_NE(memo.store(a, 1), nullptr);
  EXPECT_NE(memo.store(b, 2), nullptr);
  // Beyond the original ceiling but inside the reserved one.
  EXPECT_NE(memo.store(c, 3), nullptr);
  EXPECT_NE(memo.store(d, 4), nullptr);
  EXPECT_EQ(memo.store(e, 5), nullptr);  // reserved ceiling still bounds
  EXPECT_EQ(memo.size(), 4u);
}

// --- Entropy memo (anomaly engine) ----------------------------------------

TEST(ScanCacheTest, EntropyMemoIsBitIdenticalToRecomputation) {
  AnomalyEngineOptions cached_opt;
  AnomalyEngineOptions legacy_opt;
  legacy_opt.scan_cache = false;
  AnomalyEngine cached(cached_opt);
  AnomalyEngine legacy(legacy_opt);
  RecordingSink cached_sink;
  RecordingSink legacy_sink;
  cached.set_evidence_sink(&cached_sink);
  legacy.set_evidence_sink(&legacy_sink);

  // A handful of interned payloads cycled many times: train both models,
  // then detect. Entropy feeds EWMA baselines, z-scores, and winsorized
  // learning, so any cached-value drift would diverge the outputs.
  std::vector<PayloadRef> pool;
  util::Rng rng(99);
  for (int v = 0; v < 6; ++v) {
    std::string s(static_cast<std::size_t>(64 + 32 * v), '\0');
    for (char& ch : s) {
      ch = static_cast<char>('a' + rng.index(static_cast<std::size_t>(
                                       2 + 3 * v)));
    }
    pool.push_back(intern(std::move(s)));
  }
  std::vector<Detection> cached_out;
  std::vector<Detection> legacy_out;
  for (int i = 0; i < 400; ++i) {
    if (i == 150) {
      cached.set_mode(AnomalyEngine::Mode::kDetecting);
      legacy.set_mode(AnomalyEngine::Mode::kDetecting);
    }
    const Packet p =
        shared_packet(1 + static_cast<std::uint64_t>(i % 5),
                      static_cast<std::uint32_t>(i),
                      pool[static_cast<std::size_t>(i) % 6]);
    const SimTime now = SimTime::from_ms(10 * i);
    cached.process(p, now, cached_out);
    legacy.process(p, now, legacy_out);
  }
  expect_same_detections(cached_out, legacy_out);
  EXPECT_EQ(cached_sink.observations, legacy_sink.observations);
  EXPECT_GT(cached.scan_cache_stats().hits, 0u);
  EXPECT_GT(cached.scan_cache_stats().bytes_saved, 0u);
  EXPECT_EQ(legacy.scan_cache_stats().hits + legacy.scan_cache_stats().misses,
            0u);
}

// --- Boundary-limited reassembly merge (signature engine) -----------------

SignatureEngine signature_engine(bool cache, bool reassembly = true) {
  SignatureEngineOptions opt;
  opt.sensitivity = 0.9;  // admit weak rules: more hits to compare
  opt.stream_reassembly = reassembly;
  opt.scan_cache = cache;
  return SignatureEngine(standard_rule_set(), opt);
}

TEST(ScanCacheTest, BoundaryStraddleAndInsideHitDeduplicate) {
  // The same pattern appears twice in flight: once straddling the packet
  // boundary (only the boundary-window rescan can see it) and once fully
  // inside the second payload (the cached payload hits see it). The
  // merged result must equal the legacy full rescan exactly: one
  // evidence observation per scan that saw the id, one detection total.
  const std::string traversal(attack::patterns::kDirTraversal);
  const std::string head = "GET " + traversal.substr(0, 7);
  const std::string rest =
      traversal.substr(7) + " also " + traversal + " again";
  const PayloadRef head_ref = intern(head);
  const PayloadRef rest_ref = intern(rest);

  auto cached = signature_engine(true);
  auto legacy = signature_engine(false);
  RecordingSink cached_sink;
  RecordingSink legacy_sink;
  cached.set_evidence_sink(&cached_sink);
  legacy.set_evidence_sink(&legacy_sink);

  std::vector<Detection> cached_out;
  std::vector<Detection> legacy_out;
  // Two flows replay the same split so the second flow hits the memo.
  for (std::uint64_t flow = 1; flow <= 2; ++flow) {
    cached.process(shared_packet(flow, 1, head_ref), SimTime::from_ms(flow),
                   cached_out);
    cached.process(shared_packet(flow, 2, rest_ref), SimTime::from_ms(flow),
                   cached_out);
    legacy.process(shared_packet(flow, 1, head_ref), SimTime::from_ms(flow),
                   legacy_out);
    legacy.process(shared_packet(flow, 2, rest_ref), SimTime::from_ms(flow),
                   legacy_out);
  }
  expect_same_detections(cached_out, legacy_out);
  EXPECT_EQ(cached_sink.observations, legacy_sink.observations);

  // The split pattern fired per flow (dedup is per (rule, flow))...
  std::size_t traversal_detections = 0;
  for (const auto& d : cached_out) {
    if (d.rule == "WEB-IIS dir traversal") ++traversal_detections;
  }
  EXPECT_EQ(traversal_detections, 2u);
  // ...and the replayed payloads were served from the memo.
  EXPECT_GT(cached.scan_cache_stats().hits, 0u);
}

TEST(ScanCacheTest, CachedEngineMatchesLegacyOnRandomizedStreams) {
  // Randomized replay over shared interned payloads — pattern fragments,
  // whole patterns, benign noise — through reassembling cached vs legacy
  // engines. Detections and evidence must be byte-identical, with real
  // memo traffic on the cached side.
  const std::string traversal(attack::patterns::kDirTraversal);
  std::vector<PayloadRef> pool = {
      intern("GET /index.html HTTP/1.0\r\n"),
      intern(traversal.substr(0, 9)),
      intern(traversal.substr(9)),
      intern("payload " + traversal + " embedded"),
      intern(std::string(100, 'x')),
      intern("\x90\x90\x90"),
      intern("\x90\x90\x90\x90 trailer"),
  };
  auto cached = signature_engine(true);
  auto legacy = signature_engine(false);
  RecordingSink cached_sink;
  RecordingSink legacy_sink;
  cached.set_evidence_sink(&cached_sink);
  legacy.set_evidence_sink(&legacy_sink);

  util::Rng rng(4242);
  std::vector<Detection> cached_out;
  std::vector<Detection> legacy_out;
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t flow = 1 + rng.index(8);
    const PayloadRef& ref = pool[rng.index(pool.size())];
    const Packet p = shared_packet(flow, static_cast<std::uint32_t>(i), ref);
    const SimTime now = SimTime::from_ms(i);
    cached.process(p, now, cached_out);
    legacy.process(p, now, legacy_out);
  }
  expect_same_detections(cached_out, legacy_out);
  EXPECT_EQ(cached_sink.observations, legacy_sink.observations);
  EXPECT_GT(cached.scan_cache_stats().hits, 100u);
  EXPECT_LE(cached.scan_cache_stats().misses, pool.size());
}

TEST(ScanCacheTest, NonReassemblingCachedEngineMatchesLegacy) {
  // Without reassembly the cached path is a pure find_set memo.
  const std::string traversal(attack::patterns::kDirTraversal);
  const PayloadRef hit_ref = intern("GET " + traversal + " HTTP/1.0");
  const PayloadRef miss_ref = intern("GET /style.css HTTP/1.0");
  auto cached = signature_engine(true, /*reassembly=*/false);
  auto legacy = signature_engine(false, /*reassembly=*/false);
  std::vector<Detection> cached_out;
  std::vector<Detection> legacy_out;
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    for (std::uint32_t seq = 1; seq <= 3; ++seq) {
      const PayloadRef& ref = seq == 2 ? hit_ref : miss_ref;
      cached.process(shared_packet(flow, seq, ref), SimTime::from_ms(seq),
                     cached_out);
      legacy.process(shared_packet(flow, seq, ref), SimTime::from_ms(seq),
                     legacy_out);
    }
  }
  expect_same_detections(cached_out, legacy_out);
  EXPECT_EQ(cached.scan_cache_stats().misses, 2u);  // one per distinct ref
  EXPECT_EQ(cached.scan_cache_stats().hits, 10u);
}

TEST(ScanCacheTest, CachedEnginesMatchLegacyOnPooledPayloadHotLoop) {
  // The detection-engine hot loop over the few-variant interned payload
  // mix pooled RT-cluster/ICS traffic produces: deep inspection with
  // stream reassembly and the entropy model side by side, learning for
  // the first eighth of the stream and detecting after it. Mostly
  // low-entropy repetitive frames, signature-bearing payloads (one
  // pattern near the start, one deep inside where only the memo sees
  // it) and a boundary-straddling fragment pair, cycled over 32 flows.
  const std::string traversal(attack::patterns::kDirTraversal);
  std::vector<PayloadRef> pool;
  util::Rng rng(20260808);
  for (int v = 0; v < 12; ++v) {
    std::string s(static_cast<std::size_t>(384 + 48 * v), '\0');
    for (char& ch : s) {
      ch = static_cast<char>(
          'a' + rng.index(static_cast<std::size_t>(2 + v % 5)));
    }
    pool.push_back(intern(std::move(s)));
  }
  pool.push_back(
      intern("GET " + traversal + " HTTP/1.0 " + std::string(480, 'b')));
  pool.push_back(intern("GET /a" + traversal.substr(0, 7)));
  pool.push_back(intern(traversal.substr(7) + std::string(440, 'c')));
  pool.push_back(intern(std::string(512, 'd')));
  pool.push_back(intern(std::string(300, 'e') +
                       std::string(attack::patterns::kShellInvoke) +
                       std::string(100, 'e')));

  struct Engines {
    SignatureEngine signature;
    AnomalyEngine anomaly;
    std::vector<Detection> out;
  };
  const auto make = [](bool cache) {
    SignatureEngineOptions sig;
    sig.stream_reassembly = true;
    sig.scan_cache = cache;
    AnomalyEngineOptions ano;
    ano.scan_cache = cache;
    return Engines{SignatureEngine(standard_rule_set(), sig),
                   AnomalyEngine(ano), {}};
  };
  Engines cached = make(true);
  Engines legacy = make(false);

  constexpr std::size_t kPackets = 16384;
  for (std::size_t i = 0; i < kPackets; ++i) {
    if (i == kPackets / 8) {
      cached.anomaly.set_mode(AnomalyEngine::Mode::kDetecting);
      legacy.anomaly.set_mode(AnomalyEngine::Mode::kDetecting);
    }
    const Packet p = shared_packet(1 + (i % 32), static_cast<std::uint32_t>(i),
                                   pool[(i * 7) % pool.size()]);
    const SimTime now = SimTime::from_us(static_cast<double>(i));
    for (Engines* e : {&cached, &legacy}) {
      e->signature.process(p, now, e->out);
      e->anomaly.process(p, now, e->out);
    }
  }
  ASSERT_GT(legacy.out.size(), 0u);
  expect_same_detections(cached.out, legacy.out);
  EXPECT_GT(cached.signature.scan_cache_stats().hits, kPackets / 2);
  EXPECT_GT(cached.anomaly.scan_cache_stats().hits, kPackets / 2);
}

}  // namespace
}  // namespace idseval::ids
