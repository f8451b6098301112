#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace idseval::util {

namespace {
// The compiler's 128-bit integer (GCC/Clang); __extension__ marks the
// non-ISO type so -Wpedantic builds accept it.
__extension__ using uint128 = unsigned __int128;
}  // namespace

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double EwmaBaseline::variance() const noexcept {
  const double m = mean_.value();
  return std::max(0.0, sq_.value() - m * m);
}

double EwmaBaseline::stddev() const noexcept { return std::sqrt(variance()); }

double EwmaBaseline::zscore(double x, double min_stddev) const noexcept {
  if (!seeded()) return 0.0;
  // Floor the spread so a perfectly constant baseline still yields finite
  // scores; otherwise any deviation would be an infinite anomaly.
  const double sd = std::max({stddev(), min_stddev,
                              1e-9 + 0.01 * std::abs(mean())});
  return (x - mean()) / sd;
}

double percentile(std::span<const double> samples, double p) {
  std::vector<double> copy(samples.begin(), samples.end());
  return percentile_inplace(copy, p);
}

double percentile_inplace(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed ? seed : 1) {
  samples_.reserve(capacity);
}

std::uint64_t Reservoir::next_u64() noexcept {
  // xorshift64* — cheap, local, and with well-mixed high bits (the
  // multiply matters: bounded() consumes the draw from the top down).
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return rng_state_ * 0x2545F4914F6CDD1DULL;
}

std::uint64_t Reservoir::bounded(std::uint64_t range) noexcept {
  // Lemire's multiply-shift with rejection: x*range >> 64 is uniform in
  // [0, range) once draws landing in the biased low fringe (fewer than
  // 2^64 mod range of them) are rejected. A plain `x % range` keeps that
  // fringe and systematically favours low slots.
  std::uint64_t x = next_u64();
  uint128 m = static_cast<uint128>(x) * range;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<uint128>(x) * range;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void Reservoir::add(double x) noexcept {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  const std::uint64_t slot = bounded(seen_);
  if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = x;
}

double Reservoir::percentile(double p) const {
  return util::percentile(samples_, p);
}

}  // namespace idseval::util
