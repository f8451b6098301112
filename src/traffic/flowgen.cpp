#include "traffic/flowgen.hpp"

#include <algorithm>
#include <stdexcept>

namespace idseval::traffic {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::Protocol;
using netsim::SimTime;

FlowGenerator::FlowGenerator(netsim::Simulator& sim, netsim::Network& net,
                             TransactionLedger* ledger,
                             EnvironmentProfile profile, std::uint64_t seed,
                             PayloadPool* pool)
    : sim_(sim),
      net_(net),
      ledger_(ledger),
      profile_(std::move(profile)),
      rng_(seed),
      owned_pool_(pool == nullptr
                      ? std::make_unique<PayloadPool>(
                            seed ^ util::hash64("flowgen-payloads"))
                      : nullptr),
      pool_(pool == nullptr ? owned_pool_.get() : pool) {
  mix_weights_.reserve(profile_.mix.size());
  for (const auto& share : profile_.mix) {
    mix_weights_.push_back(share.weight);
  }
  if (profile_.mix.empty()) {
    throw std::invalid_argument("FlowGenerator: profile has empty mix");
  }
}

void FlowGenerator::set_internal_hosts(std::vector<Ipv4> hosts) {
  internal_ = std::move(hosts);
}

void FlowGenerator::set_external_hosts(std::vector<Ipv4> hosts) {
  external_ = std::move(hosts);
}

void FlowGenerator::start(SimTime until) {
  if (internal_.empty()) {
    throw std::logic_error("FlowGenerator: no internal hosts configured");
  }
  stop_time_ = until;
  started_ = true;
  schedule_next_arrival();
  if (profile_.burst_fraction > 0.0) toggle_burst();
}

double FlowGenerator::current_rate() const noexcept {
  const double base = profile_.flows_per_sec * rate_scale_;
  return in_burst_ ? base * profile_.burst_factor : base;
}

void FlowGenerator::toggle_burst() {
  // Two-state MMPP: sojourn times chosen so the long-run burst-state
  // fraction matches profile_.burst_fraction.
  const double f = std::clamp(profile_.burst_fraction, 0.0, 0.95);
  if (f <= 0.0) return;
  const double mean_burst = std::max(1e-3, profile_.mean_burst_sec);
  const double mean_normal = mean_burst * (1.0 - f) / f;
  const double sojourn =
      rng_.exponential(1.0 / (in_burst_ ? mean_burst : mean_normal));
  sim_.schedule_in(SimTime::from_sec(sojourn), [this] {
    if (sim_.now() >= stop_time_) return;
    in_burst_ = !in_burst_;
    toggle_burst();
  });
}

void FlowGenerator::schedule_next_arrival() {
  const double rate = current_rate();
  if (rate <= 0.0) return;
  const double gap = rng_.exponential(rate);
  sim_.schedule_in(SimTime::from_sec(gap), [this] {
    if (sim_.now() >= stop_time_) return;
    launch_flow();
    schedule_next_arrival();
  });
}

Ipv4 FlowGenerator::pick_source() {
  const bool external =
      !external_.empty() && rng_.chance(profile_.external_fraction);
  const auto& pool = external ? external_ : internal_;
  return pool[rng_.index(pool.size())];
}

Ipv4 FlowGenerator::pick_destination(Ipv4 source) {
  // Destinations are always internal (the protected enclave); avoid
  // self-talk when possible. A Zipf exponent concentrates load on the
  // first hosts of the pool (the "busy servers").
  auto pick = [this]() -> Ipv4 {
    if (profile_.dest_zipf_s > 0.0) {
      return internal_[rng_.zipf(internal_.size(), profile_.dest_zipf_s)];
    }
    return internal_[rng_.index(internal_.size())];
  };
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Ipv4 dst = pick();
    if (dst != source) return dst;
  }
  return pick();
}

FlowGenerator::FlowHandle FlowGenerator::alloc_flow_state() {
  if (free_head_ != kNilHandle) {
    const FlowHandle handle = free_head_;
    free_head_ = slab_[handle].next_free;
    slab_[handle].next_free = kNilHandle;
    ++live_flows_;
    return handle;
  }
  slab_.emplace_back();
  ++live_flows_;
  return static_cast<FlowHandle>(slab_.size() - 1);
}

void FlowGenerator::release_flow_state(FlowHandle handle) {
  slab_[handle].next_free = free_head_;
  free_head_ = handle;
  --live_flows_;
}

void FlowGenerator::launch_flow() {
  const auto& share = profile_.mix[rng_.weighted_index(mix_weights_)];

  FiveTuple tuple;
  tuple.src_ip = pick_source();
  tuple.dst_ip = pick_destination(tuple.src_ip);
  tuple.src_port =
      static_cast<std::uint16_t>(rng_.uniform_u64(1024, 65535));
  tuple.dst_port = share.dst_port;
  tuple.proto = share.proto;

  // Pareto-distributed flow length with the configured mean:
  // E[X] = xm * alpha / (alpha - 1)  =>  xm = mean * (alpha - 1) / alpha.
  const double alpha = std::max(1.05, profile_.flow_tail_alpha);
  const double xm = profile_.mean_packets_per_flow * (alpha - 1.0) / alpha;
  const auto packets = static_cast<std::uint32_t>(
      std::clamp(rng_.pareto(std::max(1.0, xm), alpha), 1.0, 10000.0));

  const std::uint64_t flow_id = sim_.next_flow_id();
  Transaction* txn = nullptr;
  if (ledger_ != nullptr) {
    txn = &ledger_->begin(flow_id, tuple, sim_.now(), /*is_attack=*/false);
  }
  ++stats_.flows_started;

  const FlowHandle handle = alloc_flow_state();
  FlowState& st = slab_[handle];
  st.tuple = tuple;
  st.flow_id = flow_id;
  st.txn = txn;
  st.interval_ms = profile_.mean_pkt_interval_ms;
  st.seq = 0;
  st.remaining = packets;
  st.kind = share.kind;
  step_flow(handle);
}

void FlowGenerator::step_flow(FlowHandle handle) {
  FlowState& st = slab_[handle];

  const double jitter = std::max(
      16.0, rng_.normal(profile_.mean_payload_bytes,
                        profile_.mean_payload_bytes * profile_.payload_jitter));
  const auto payload_len =
      static_cast<std::size_t>(std::min(jitter, 1400.0));

  Packet p = netsim::make_packet(sim_.next_packet_id(), st.flow_id,
                                 sim_.now(), st.tuple,
                                 pool_->background(st.kind, payload_len));
  p.seq = st.seq;
  if (st.tuple.proto == Protocol::kTcp) {
    p.flags.syn = (st.seq == 0);
    p.flags.ack = (st.seq != 0);
    p.flags.fin = (st.remaining == 1);
  }

  net_.send(p);
  ++stats_.packets_emitted;
  stats_.bytes_emitted += p.wire_bytes();
  if (st.txn != nullptr) {
    TransactionLedger::touch(*st.txn, sim_.now(), p.wire_bytes());
  }

  if (st.remaining > 1) {
    ++st.seq;
    --st.remaining;
    const double gap_ms =
        rng_.exponential(1.0 / std::max(1e-3, st.interval_ms));
    sim_.schedule_in(SimTime::from_ms(gap_ms),
                     [this, handle] { step_flow(handle); });
  } else {
    release_flow_state(handle);
  }
}

}  // namespace idseval::traffic
