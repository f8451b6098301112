#include "netsim/switch.hpp"

#include <utility>

namespace idseval::netsim {

Switch::Switch(Simulator& sim, std::string name)
    : sim_(sim),
      name_(std::move(name)),
      tele_mirrored_(telemetry::counter_handle(
          telemetry::names::kSwitchMirrored)),
      tele_forwarded_(telemetry::counter_handle(
          telemetry::names::kSwitchForwarded)),
      tele_blocked_(telemetry::counter_handle(
          telemetry::names::kSwitchBlocked)) {}

void Switch::attach(Ipv4 addr, Link* egress) {
  routes_[addr.value()] = egress;
}

void Switch::receive_batch(const Packet* packets, std::size_t count) {
  if (blocked_.empty()) {
    admit(packets, count);
    return;
  }
  // Block-list filtering can split the batch: packets are filtered one at
  // a time, so blocked/mirrored ordering is that of per-packet arrival.
  for (std::size_t i = 0; i < count; ++i) {
    if (blocked_.contains(packets[i].tuple.src_ip.value())) {
      ++stats_.blocked;
      telemetry::bump(tele_blocked_);
    } else {
      admit(packets + i, 1);
    }
  }
}

void Switch::admit(const Packet* packets, std::size_t count) {
  // Mirrors observe traffic as it traverses the switch, before any
  // in-line device: a SPAN copy is taken at the ingress ASIC. Hoisted:
  // one stats/telemetry update for the whole fan-out.
  const std::uint64_t mirror_copies =
      static_cast<std::uint64_t>(mirrors_.size()) *
      static_cast<std::uint64_t>(count);
  if (mirror_copies != 0) {
    stats_.mirrored += mirror_copies;
    telemetry::bump(tele_mirrored_, mirror_copies);
  }
  for (const MirrorFn& mirror : mirrors_) mirror(packets, count);
  if (inline_hook_) {
    for (std::size_t i = 0; i < count; ++i) {
      inline_hook_(packets[i],
                   [this](const Packet& p) { forward_batch(&p, 1); });
    }
  } else {
    forward_batch(packets, count);
  }
}

void Switch::forward_batch(const Packet* packets, std::size_t count) {
  // Same-tick batches overwhelmingly share one destination (they came off
  // one uplink); cache the last route to skip repeat hash lookups.
  std::uint32_t cached_dst = 0;
  Link* cached_link = nullptr;
  bool cache_valid = false;
  std::uint64_t forwarded = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Packet& packet = packets[i];
    const std::uint32_t dst = packet.tuple.dst_ip.value();
    if (!cache_valid || dst != cached_dst) {
      const auto it = routes_.find(dst);
      cached_dst = dst;
      cached_link = (it == routes_.end()) ? nullptr : it->second;
      cache_valid = true;
    }
    if (cached_link == nullptr) {
      ++stats_.no_route;
      continue;
    }
    ++forwarded;
    cached_link->send(packet);
  }
  stats_.forwarded += forwarded;
  telemetry::bump(tele_forwarded_, forwarded);
}

void Switch::block_source(Ipv4 addr) { blocked_.insert(addr.value()); }

void Switch::unblock_source(Ipv4 addr) { blocked_.erase(addr.value()); }

bool Switch::is_blocked(Ipv4 addr) const {
  return blocked_.contains(addr.value());
}

}  // namespace idseval::netsim
