// Signature-based ("knowledge-based", "misuse-based") detection engine
// (§2.1): multi-pattern payload matching plus sliding-window threshold
// rules. Only detects what its shipped database describes — novel attacks
// sail through, which is the engine's structural false-negative source.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ids/aho_corasick.hpp"
#include "ids/alert.hpp"
#include "ids/evidence.hpp"
#include "ids/fired_set.hpp"
#include "ids/rules.hpp"
#include "ids/scan_cache.hpp"
#include "netsim/packet.hpp"
#include "util/flat_map.hpp"
#include "util/flow_table.hpp"

namespace idseval::ids {

/// Converts the shared sensitivity knob (0..1) into the minimum rule
/// confidence that is allowed to fire. Higher sensitivity admits weaker
/// rules: more true detections, more Type I errors (Figure 4's x-axis).
double sensitivity_to_min_confidence(double sensitivity) noexcept;
/// Scales a threshold rule's trigger level: higher sensitivity lowers the
/// bar (fires earlier).
double sensitivity_threshold_scale(double sensitivity) noexcept;

struct SignatureEngineOptions {
  double sensitivity = 0.5;
  /// When false the engine only evaluates header/threshold rules — the
  /// cheap mode whose inadequacy the X3 ablation demonstrates.
  bool deep_inspection = true;
  /// Stream reassembly: retain the tail of each flow's byte stream and
  /// scan it concatenated with the next payload, so patterns split across
  /// packet boundaries (Ptacek-Newsham evasion) still match. Costs per-
  /// flow memory and extra scan bytes — engines without it are faster and
  /// blind to kEvasiveExploit.
  bool stream_reassembly = false;
  /// Clamped to TailBuffer::kCapacity (64): the per-flow tail lives in a
  /// fixed inline buffer, not a heap string.
  std::size_t reassembly_tail_bytes = 64;
  /// Interned-payload scan cache (ids/scan_cache.hpp): memoize each
  /// pooled payload's raw Aho-Corasick hit list and only rescan the
  /// boundary window under stream reassembly. Detection output and the
  /// golden determinism hash are byte-identical on or off — off replays
  /// the exact legacy full-rescan path (regression pinning).
  bool scan_cache = true;
};

class SignatureEngine {
 public:
  SignatureEngine(RuleSet rules, SignatureEngineOptions options);

  /// Evaluates one packet; appends any detections (at most one per rule
  /// per flow — real engines suppress duplicate alerts).
  void process(const netsim::Packet& packet, netsim::SimTime now,
               std::vector<Detection>& out);

  void set_sensitivity(double s) noexcept { options_.sensitivity = s; }
  double sensitivity() const noexcept { return options_.sensitivity; }
  bool deep_inspection() const noexcept { return options_.deep_inspection; }
  void set_scan_cache(bool on) noexcept { options_.scan_cache = on; }
  bool scan_cache() const noexcept { return options_.scan_cache; }
  /// Raises the memo's capacity ceiling (never lowers): adaptive
  /// PayloadPool growth mints variants past the default population.
  void reserve_scan_cache(std::size_t capacity) noexcept {
    payload_memo_.reserve_capacity(capacity);
  }
  /// Memo traffic (hits/misses/bytes_saved) for benches and tests.
  const ScanCacheStats& scan_cache_stats() const noexcept {
    return payload_memo_.stats();
  }

  /// Attaches a pre-gate evidence observer (nullptr detaches). Purely
  /// observational: detection output is identical either way.
  void set_evidence_sink(EvidenceSink* sink) noexcept { evidence_ = sink; }

  const RuleSet& rules() const noexcept { return rules_; }

  /// Abstract CPU cost of scanning this packet (drives the sensor's
  /// service-time model): header rules are O(1); deep inspection pays per
  /// payload byte.
  double scan_cost_ops(const netsim::Packet& packet) const noexcept;

  /// Clears all sliding-window state (used between measurement phases).
  void reset_state();

  /// Approximate bytes of per-flow reassembly state (storage accounting).
  std::size_t reassembly_bytes() const noexcept;

 private:
  struct PortFanout {
    /// Tiny (a handful of live ports), so a flat sorted vector beats the
    /// node-based hash map it replaced on allocations and cache lines.
    util::FlatMap<std::uint16_t, netsim::SimTime> last_seen;
    netsim::SimTime cooldown_until;
  };
  struct RateWindow {
    std::deque<netsim::SimTime> events;
    netsim::SimTime cooldown_until;
  };
  /// Fixed-capacity inline stream tail: the retained suffix of a flow's
  /// byte stream, capped at kCapacity. Appending is equivalent to
  /// `tail = last min(cap, tail+payload) bytes of (tail || payload)`
  /// without materializing the concatenation — no per-packet heap churn.
  class TailBuffer {
   public:
    static constexpr std::size_t kCapacity = 64;

    std::string_view view() const noexcept { return {bytes_, size_}; }
    const char* data() const noexcept { return bytes_; }
    std::size_t size() const noexcept { return size_; }

    void append(std::string_view payload, std::size_t cap) noexcept {
      cap = std::min(cap, kCapacity);
      if (payload.size() >= cap) {
        std::memcpy(bytes_, payload.data() + (payload.size() - cap), cap);
        size_ = cap;
        return;
      }
      const std::size_t keep_old = std::min(size_, cap - payload.size());
      if (keep_old > 0 && keep_old < size_) {
        std::memmove(bytes_, bytes_ + (size_ - keep_old), keep_old);
      }
      std::memcpy(bytes_ + keep_old, payload.data(), payload.size());
      size_ = keep_old + payload.size();
    }

   private:
    char bytes_[kCapacity];
    std::size_t size_ = 0;
  };
  /// One memoized payload scan: the raw automaton hit list (pattern id +
  /// end offset — sensitivity-independent; the confidence gate applies
  /// after matching) plus the sorted-unique pattern ids derived from it
  /// (what find_set would have returned).
  struct CachedHits {
    std::vector<AhoCorasick::Match> matches;
    std::vector<std::size_t> ids;
  };

  void check_patterns(const netsim::Packet& packet, netsim::SimTime now,
                      double min_conf, std::vector<Detection>& out);
  /// Memo lookup/fill for one interned payload. `rescanned_bytes` is how
  /// much of the payload the caller scans anyway (the boundary-window
  /// prefix under reassembly) and is excluded from the bytes-saved
  /// credit on a hit.
  const CachedHits& cached_hits(
      const std::shared_ptr<const std::string>& payload,
      std::size_t rescanned_bytes);
  void check_thresholds(const netsim::Packet& packet, netsim::SimTime now,
                        double min_conf, std::vector<Detection>& out);
  bool already_fired(std::size_t rule_tag, std::uint64_t flow_id);
  Detection make_detection(const netsim::Packet& packet, netsim::SimTime now,
                           const std::string& rule, double confidence,
                           int severity) const;

  RuleSet rules_;
  SignatureEngineOptions options_;
  EvidenceSink* evidence_ = nullptr;
  std::unique_ptr<AhoCorasick> matcher_;
  /// matcher pattern id -> index into rules_.patterns.
  std::vector<std::size_t> pattern_rule_index_;

  util::FlowTable<std::uint32_t, PortFanout> fanout_by_src_;
  util::FlowTable<std::uint32_t, RateWindow> syn_by_dst_;
  util::FlowTable<std::uint64_t, RateWindow> rate_by_flow_;
  util::FlowTable<std::uint64_t, TailBuffer> stream_tail_;
  PayloadMemo<CachedHits> payload_memo_;
  CachedHits scratch_hits_;  ///< Fallback when the memo is at capacity.
  std::string scan_buf_;     ///< Reused tail||payload / window scratch.
  std::vector<std::size_t> scan_hits_;    ///< Reused find_set output.
  std::vector<std::size_t> merged_hits_;  ///< Reused union scratch.
  telemetry::Counter* boundary_rescans_;
  FiredSet fired_;  ///< Exact (rule_tag, flow) pairs (see fired_set.hpp).
};

}  // namespace idseval::ids
