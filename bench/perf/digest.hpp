// FNV-1a output digests: one per benchmark operation, computed after the
// timed region, so repeats of one workload and seed can be checked for
// identical results.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "harness/testbed.hpp"

namespace idseval::bench {

struct StreamHash {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Every RunResult field, in the order tests/harness/determinism_test.cpp
/// hashes them.
inline void hash_result(StreamHash& sh, const harness::RunResult& r) {
  sh.str(r.product);
  sh.f64(r.sensitivity);
  sh.u64(r.transactions);
  sh.u64(r.attacks);
  sh.u64(r.detected);
  sh.u64(r.true_detections);
  sh.u64(r.false_alarms);
  sh.u64(r.missed_attacks);
  sh.u64(r.prevented_attacks);
  sh.f64(r.fp_ratio);
  sh.f64(r.fn_ratio);
  sh.f64(r.timeliness_mean_sec);
  sh.f64(r.timeliness_max_sec);
  sh.f64(r.offered_pps);
  sh.f64(r.tapped_pps);
  sh.f64(r.processed_pps);
  sh.f64(r.ids_loss_ratio);
  sh.u64(r.sensor_failures);
  sh.u64(r.peak_concurrent_streams);
  sh.u64(r.total_streams);
  sh.f64(r.mean_delivery_latency_sec);
  sh.f64(r.p99_delivery_latency_sec);
  sh.f64(r.max_host_ids_cpu);
  sh.f64(r.mean_host_ids_cpu);
  sh.f64(r.storage_bytes_per_mb);
  sh.u64(r.firewall_blocks);
  sh.u64(r.snmp_traps);
  sh.u64(r.alerts_raised);
  sh.u64(r.post_block_attacks_suppressed);
  sh.u64(r.post_block_benign_collateral);
  for (const auto& [kind, outcome] : r.per_kind) {
    sh.u64(static_cast<std::uint64_t>(kind));
    sh.u64(outcome.launched);
    sh.u64(outcome.detected);
    sh.u64(outcome.prevented);
  }
}

}  // namespace idseval::bench
