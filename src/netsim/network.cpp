#include "netsim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace idseval::netsim {

Network::Network(Simulator& sim) : sim_(sim), switch_(sim) {}

Network::Network(ShardedSimulator& engine)
    : sim_(engine.hub()), switch_(engine.hub()), engine_(&engine) {
  if (engine.shards() > 1) {
    // One barrier source for all this network's remote downlinks: their
    // send side (the switch) lives on the hub shard, so the hub's flush
    // phase drains them.
    engine_->add_source(
        0, ShardedSimulator::Source{
               [this] {
                 SimTime m = SimTime::max();
                 for (const Link* l : dirty_remote_) {
                   m = std::min(m, l->remote_pending_min());
                 }
                 return m;
               },
               [this](SimTime global_min) {
                 auto it = dirty_remote_.begin();
                 while (it != dirty_remote_.end()) {
                   Link* l = *it;
                   l->flush_remote(global_min);
                   if (l->remote_pending_min() == SimTime::max()) {
                     l->set_remote_listed(false);
                     it = dirty_remote_.erase(it);
                   } else {
                     ++it;
                   }
                 }
               }});
  }
}

Host* Network::attach(const std::string& name, Ipv4 addr,
                      const LinkSpec& spec, double cpu_ops_per_sec) {
  if (attachments_.contains(addr.value())) {
    throw std::invalid_argument("Network: duplicate address " +
                                addr.to_string());
  }
  Attachment a;
  a.host = std::make_unique<Host>(name, addr, cpu_ops_per_sec);
  // Both link halves are driven from the hub clock: the uplink entirely,
  // the downlink on its send (switch) side; a remote downlink's receive
  // side replays on the host's shard via the engine mailboxes.
  a.uplink = std::make_unique<Link>(sim_, name + ".up", spec.bandwidth_bps,
                                    spec.latency, spec.queue_capacity);
  a.downlink = std::make_unique<Link>(sim_, name + ".down",
                                      spec.bandwidth_bps, spec.latency,
                                      spec.queue_capacity);
  a.uplink->set_lane(alloc_lane());
  a.downlink->set_lane(alloc_lane());
  Host* host = a.host.get();
  a.uplink->set_deliver_batch([this](const Packet* p, std::size_t n) {
    switch_.receive_batch(p, n);
  });
  a.downlink->set_deliver_batch([host](const Packet* p, std::size_t n) {
    host->deliver_batch(p, n);
  });
  if (const std::size_t shard = shard_of(addr); shard != 0) {
    wire_remote_downlink(a.downlink.get(), shard, spec);
  }
  switch_.attach(addr, a.downlink.get());
  attachments_.emplace(addr.value(), std::move(a));
  host_order_.push_back(host);
  return host;
}

void Network::wire_remote_downlink(Link* downlink, std::size_t shard,
                                   const LinkSpec& spec) {
  engine_->add_channel(0, shard, spec.latency);
  downlink->set_remote_flush(
      [this, downlink, shard](SimTime when, std::vector<Packet>&& batch) {
        engine_->post(0, shard, when, downlink->lane(),
                      [downlink, b = std::move(batch)]() mutable {
                        downlink->deliver_remote_batch(b);
                      });
      },
      [this, downlink] {
        if (!downlink->remote_listed()) {
          downlink->set_remote_listed(true);
          dirty_remote_.push_back(downlink);
        }
      });
}

Host* Network::add_host(const std::string& name, Ipv4 addr,
                        const LinkSpec& spec, double cpu_ops_per_sec) {
  return attach(name, addr, spec, cpu_ops_per_sec);
}

Host* Network::add_external_host(const std::string& name, Ipv4 addr,
                                 const LinkSpec& spec,
                                 double cpu_ops_per_sec) {
  return attach(name, addr, spec, cpu_ops_per_sec);
}

Host* Network::find_host(Ipv4 addr) {
  const auto it = attachments_.find(addr.value());
  return it == attachments_.end() ? nullptr : it->second.host.get();
}

const Host* Network::find_host(Ipv4 addr) const {
  const auto it = attachments_.find(addr.value());
  return it == attachments_.end() ? nullptr : it->second.host.get();
}

Link* Network::uplink(Ipv4 addr) {
  const auto it = attachments_.find(addr.value());
  return it == attachments_.end() ? nullptr : it->second.uplink.get();
}

Link* Network::downlink(Ipv4 addr) {
  const auto it = attachments_.find(addr.value());
  return it == attachments_.end() ? nullptr : it->second.downlink.get();
}

bool Network::send(const Packet& packet) {
  const auto it = attachments_.find(packet.tuple.src_ip.value());
  if (it == attachments_.end()) {
    throw std::invalid_argument("Network: unknown source " +
                                packet.tuple.src_ip.to_string());
  }
  return it->second.uplink->send(packet);
}

LinkStats Network::aggregate_uplink_stats() const {
  LinkStats total;
  for (const auto& [addr, a] : attachments_) {
    const LinkStats& s = a.uplink->stats();
    total.offered_packets += s.offered_packets;
    total.delivered_packets += s.delivered_packets;
    total.dropped_packets += s.dropped_packets;
    total.offered_bytes += s.offered_bytes;
    total.delivered_bytes += s.delivered_bytes;
  }
  return total;
}

LinkStats Network::aggregate_downlink_stats() const {
  LinkStats total;
  for (const auto& [addr, a] : attachments_) {
    const LinkStats& s = a.downlink->stats();
    total.offered_packets += s.offered_packets;
    total.delivered_packets += s.delivered_packets;
    total.dropped_packets += s.dropped_packets;
    total.offered_bytes += s.offered_bytes;
    total.delivered_bytes += s.delivered_bytes;
  }
  return total;
}

void Network::reset_link_stats() {
  for (auto& [addr, a] : attachments_) {
    a.uplink->reset_stats();
    a.downlink->reset_stats();
  }
}

void Network::set_delivery_coalescing(bool enabled) {
  for (auto& [addr, a] : attachments_) {
    a.uplink->set_coalescing(enabled);
    a.downlink->set_coalescing(enabled);
  }
}

}  // namespace idseval::netsim
