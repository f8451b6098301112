#include "netsim/host.hpp"

#include <utility>

namespace idseval::netsim {

Host::Host(std::string name, Ipv4 address, double cpu_ops_per_sec)
    : name_(std::move(name)),
      address_(address),
      cpu_ops_per_sec_(cpu_ops_per_sec) {}

void Host::deliver_batch(const Packet* packets, std::size_t count) {
  received_ += count;
  for (const ReceiveFn& r : receivers_) r(packets, count);
}

void Host::charge_ops(double ops, bool ids_work) noexcept {
  if (!accounting_open_) return;
  if (ids_work) {
    ids_ops_ += ops;
  } else {
    other_ops_ += ops;
  }
}

void Host::begin_accounting(SimTime now) noexcept {
  ids_ops_ = 0.0;
  other_ops_ = 0.0;
  window_start_ = now;
  window_end_ = now;
  accounting_open_ = true;
}

void Host::end_accounting(SimTime now) noexcept {
  window_end_ = now;
  accounting_open_ = false;
}

double Host::ids_cpu_fraction() const noexcept {
  const double window_sec = (window_end_ - window_start_).sec();
  if (window_sec <= 0.0 || cpu_ops_per_sec_ <= 0.0) return 0.0;
  return ids_ops_ / (cpu_ops_per_sec_ * window_sec);
}

double Host::total_cpu_fraction() const noexcept {
  const double window_sec = (window_end_ - window_start_).sec();
  if (window_sec <= 0.0 || cpu_ops_per_sec_ <= 0.0) return 0.0;
  return (ids_ops_ + other_ops_) / (cpu_ops_per_sec_ * window_sec);
}

}  // namespace idseval::netsim
