#include "ids/signature_engine.hpp"

#include <algorithm>

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

double sensitivity_to_min_confidence(double sensitivity) noexcept {
  const double s = std::clamp(sensitivity, 0.0, 1.0);
  // s=0 -> 0.95 (only near-certain rules), s=1 -> 0.25 (almost anything).
  return 0.95 - 0.70 * s;
}

double sensitivity_threshold_scale(double sensitivity) noexcept {
  const double s = std::clamp(sensitivity, 0.0, 1.0);
  // s=0 -> 1.6x the shipped threshold, s=0.5 -> 1.0x, s=1 -> 0.4x.
  return 1.6 - 1.2 * s;
}

SignatureEngine::SignatureEngine(RuleSet rules,
                                 SignatureEngineOptions options)
    : rules_(std::move(rules)),
      options_(options),
      boundary_rescans_(telemetry::counter_handle(
          telemetry::names::kScanCacheBoundaryRescans)) {
  options_.reassembly_tail_bytes =
      std::min(options_.reassembly_tail_bytes, TailBuffer::kCapacity);
  std::vector<std::string> patterns;
  patterns.reserve(rules_.patterns.size());
  for (std::size_t i = 0; i < rules_.patterns.size(); ++i) {
    patterns.push_back(rules_.patterns[i].pattern);
    pattern_rule_index_.push_back(i);
  }
  if (!patterns.empty()) {
    matcher_ = std::make_unique<AhoCorasick>(patterns);
  }
}

double SignatureEngine::scan_cost_ops(const Packet& packet) const noexcept {
  // Header rule evaluation + window bookkeeping.
  double ops = 600.0;
  if (options_.deep_inspection && packet.payload_bytes() > 0) {
    // One automaton transition per byte, ~12 abstract ops each; stream
    // reassembly rescans the retained tail and pays copy costs.
    double bytes = static_cast<double>(packet.payload_bytes());
    if (options_.stream_reassembly) {
      bytes += static_cast<double>(options_.reassembly_tail_bytes);
      ops += 400.0;  // per-flow buffer management
    }
    ops += 12.0 * bytes;
  }
  return ops;
}

std::size_t SignatureEngine::reassembly_bytes() const noexcept {
  // Each live flow owns one fixed inline TailBuffer slab slot plus ~16
  // bytes of table-slot overhead (honest for the new representation: the
  // buffer's full capacity is committed whether or not it is filled).
  return stream_tail_.size() * (sizeof(TailBuffer) + 16);
}

void SignatureEngine::process(const Packet& packet, SimTime now,
                              std::vector<Detection>& out) {
  const double min_conf =
      sensitivity_to_min_confidence(options_.sensitivity);
  if (options_.deep_inspection && matcher_ && packet.payload_bytes() > 0) {
    check_patterns(packet, now, min_conf, out);
  }
  check_thresholds(packet, now, min_conf, out);
}

bool SignatureEngine::already_fired(std::size_t rule_tag,
                                    std::uint64_t flow_id) {
  return !fired_.insert(
      FireKey{flow_id, static_cast<std::uint64_t>(rule_tag)});
}

Detection SignatureEngine::make_detection(const Packet& packet, SimTime now,
                                          const std::string& rule,
                                          double confidence,
                                          int severity) const {
  Detection d;
  d.flow_id = packet.flow_id;
  d.tuple = packet.tuple;
  d.when = now;
  d.rule = rule;
  d.confidence = confidence;
  d.severity = severity;
  d.method = DetectionMethod::kSignature;
  return d;
}

namespace {

/// Union of two ascending unique id lists, ascending unique — the order
/// find_set would have produced over the concatenated stream.
void merge_sorted_unique(const std::vector<std::size_t>& a,
                         const std::vector<std::size_t>& b,
                         std::vector<std::size_t>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
}

}  // namespace

const SignatureEngine::CachedHits& SignatureEngine::cached_hits(
    const std::shared_ptr<const std::string>& payload,
    std::size_t rescanned_bytes) {
  if (const CachedHits* cached = payload_memo_.find(payload)) {
    payload_memo_.credit_saved(
        payload->size() - std::min(payload->size(), rescanned_bytes));
    return *cached;
  }
  // One full scan per distinct interned payload: keep the raw match list
  // (sensitivity-independent) and derive the sorted-unique id set once.
  scratch_hits_.matches = matcher_->find_all(*payload);
  scratch_hits_.ids.clear();
  for (const AhoCorasick::Match& m : scratch_hits_.matches) {
    scratch_hits_.ids.push_back(m.pattern_id);
  }
  std::sort(scratch_hits_.ids.begin(), scratch_hits_.ids.end());
  scratch_hits_.ids.erase(
      std::unique(scratch_hits_.ids.begin(), scratch_hits_.ids.end()),
      scratch_hits_.ids.end());
  if (const CachedHits* stored = payload_memo_.store(payload, scratch_hits_)) {
    return *stored;
  }
  return scratch_hits_;
}

void SignatureEngine::check_patterns(const Packet& packet, SimTime now,
                                     double min_conf,
                                     std::vector<Detection>& out) {
  const std::vector<std::size_t>* hits = &scan_hits_;
  if (options_.stream_reassembly) {
    TailBuffer& tail = *stream_tail_.try_emplace(packet.flow_id).first;
    if (options_.scan_cache && packet.payload != nullptr) {
      // Boundary-limited reassembly: the only matches the per-payload
      // memo cannot know about cross the packet boundary, and every one
      // of those ends within the first L-1 payload bytes (L = longest
      // pattern). Scanning the whole retained tail (≤ 64 B — patterns
      // entirely inside the tail re-fire evidence exactly as the legacy
      // full rescan did) plus that prefix, then merging with the cached
      // payload-only ids, reproduces find_set(tail || payload) exactly.
      const std::string& payload = packet.payload_view();
      const std::size_t max_len = matcher_->max_pattern_length();
      const std::size_t prefix =
          std::min(payload.size(), max_len > 0 ? max_len - 1 : 0);
      scan_buf_.assign(tail.data(), tail.size());
      scan_buf_.append(payload, 0, prefix);
      telemetry::bump(boundary_rescans_);
      matcher_->find_set(scan_buf_, scan_hits_);
      merge_sorted_unique(scan_hits_, cached_hits(packet.payload, prefix).ids,
                          merged_hits_);
      hits = &merged_hits_;
    } else {
      // Legacy scan path (the --no-scan-cache pin): rescan the retained
      // tail concatenated with the whole payload.
      scan_buf_.assign(tail.data(), tail.size());
      scan_buf_.append(packet.payload_view());
      matcher_->find_set(scan_buf_, scan_hits_);
    }
    tail.append(packet.payload_view(), options_.reassembly_tail_bytes);
  } else if (options_.scan_cache && packet.payload != nullptr) {
    hits = &cached_hits(packet.payload, 0).ids;
  } else {
    matcher_->find_set(packet.payload_view(), scan_hits_);
  }
  for (const std::size_t pid : *hits) {
    const PatternRule& rule = rules_.patterns[pattern_rule_index_[pid]];
    if (rule.dst_port && *rule.dst_port != packet.tuple.dst_port) continue;
    if (rule.proto && *rule.proto != packet.tuple.proto) continue;
    // Pre-gate evidence: a matched pattern fires once sensitivity admits
    // its confidence, independent of the current knob setting.
    if (evidence_) {
      evidence_->observe(packet.flow_id, EvidenceChannel::kSignaturePattern,
                         rule.confidence,
                         sensitivity_for_confidence(rule.confidence),
                         /*strict_trigger=*/false);
    }
    if (rule.confidence < min_conf) continue;
    if (already_fired(pattern_rule_index_[pid], packet.flow_id)) continue;
    out.push_back(make_detection(packet, now, rule.name, rule.confidence,
                                 rule.severity));
  }
}

void SignatureEngine::check_thresholds(const Packet& packet, SimTime now,
                                       double min_conf,
                                       std::vector<Detection>& out) {
  const double scale = sensitivity_threshold_scale(options_.sensitivity);
  // Pre-gate evidence for window rules. A rule fires once sensitivity
  // both admits its confidence and scales the trigger below the observed
  // count, so the critical sensitivity is the max of the two inverses.
  // Unlike pattern rules this is approximate across knob settings: the
  // confidence gate above also gates window updates, so windows only
  // accumulate while the recording sensitivity admits the rule.
  const auto observe_count = [&](const ThresholdRule& rule, double count) {
    if (!evidence_) return;
    const double ratio = count / static_cast<double>(rule.threshold);
    const double critical =
        std::max(sensitivity_for_confidence(rule.confidence),
                 sensitivity_for_threshold_ratio(ratio));
    evidence_->observe(packet.flow_id, EvidenceChannel::kSignatureThreshold,
                       ratio, critical, /*strict_trigger=*/false);
  };
  for (std::size_t r = 0; r < rules_.thresholds.size(); ++r) {
    const ThresholdRule& rule = rules_.thresholds[r];
    if (rule.confidence < min_conf) continue;
    if (rule.dst_port && *rule.dst_port != packet.tuple.dst_port) continue;
    const double effective = rule.threshold * scale;
    const std::size_t rule_tag = rules_.patterns.size() + r;

    switch (rule.feature) {
      case ThresholdFeature::kDistinctDstPorts: {
        PortFanout& state =
            *fanout_by_src_.try_emplace(packet.tuple.src_ip.value()).first;
        state.last_seen[packet.tuple.dst_port] = now;
        if (now < state.cooldown_until) break;
        // Prune entries older than the window, then count.
        state.last_seen.erase_if([&](const auto& kv) {
          return now - kv.second > rule.window;
        });
        observe_count(rule, static_cast<double>(state.last_seen.size()));
        if (static_cast<double>(state.last_seen.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
      case ThresholdFeature::kSynRate: {
        if (!(packet.flags.syn && !packet.flags.ack)) break;
        RateWindow& state =
            *syn_by_dst_.try_emplace(packet.tuple.dst_ip.value()).first;
        state.events.push_back(now);
        while (!state.events.empty() &&
               now - state.events.front() > rule.window) {
          state.events.pop_front();
        }
        if (now < state.cooldown_until) break;
        observe_count(rule, static_cast<double>(state.events.size()));
        if (static_cast<double>(state.events.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
      case ThresholdFeature::kFlowPacketRate: {
        RateWindow& state =
            *rate_by_flow_.try_emplace(packet.flow_id).first;
        state.events.push_back(now);
        while (!state.events.empty() &&
               now - state.events.front() > rule.window) {
          state.events.pop_front();
        }
        if (now < state.cooldown_until) break;
        observe_count(rule, static_cast<double>(state.events.size()));
        if (static_cast<double>(state.events.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
    }
  }
}

void SignatureEngine::reset_state() {
  stream_tail_.clear();
  fanout_by_src_.clear();
  syn_by_dst_.clear();
  rate_by_flow_.clear();
  fired_.clear();
  // payload_memo_ is deliberately retained: entries are pure content
  // functions of their interned payloads, valid across windows/reboots.
}

}  // namespace idseval::ids
