// The sequential load searches: one full probe at a time, in the order
// the searches read them, with no memo, early stop or speculation. The
// concurrent searches in harness/measure.cpp must return bit-identical
// values; the differential tests compare the two.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "harness/measure.hpp"

namespace idseval::harness::oracle {

inline double zero_loss_pps(const TestbedConfig& base,
                            const products::ProductModel& model,
                            double sensitivity, double max_scale,
                            double loss_epsilon, int iterations) {
  const auto passes = [loss_epsilon](const LoadPoint& p) {
    return p.loss_ratio <= loss_epsilon && p.failures == 0;
  };
  // Establish a bracket: grow until loss appears (or max_scale reached).
  double lo = 0.0;  // highest scale with zero loss
  double lo_pps = 0.0;
  double hi = 0.0;  // lowest scale with loss (0 = none found)
  double scale = 1.0;
  while (scale <= max_scale) {
    const LoadPoint p =
        run_load_probe(base, model, sensitivity, ProbeKind::kClean, scale);
    if (passes(p)) {
      lo = scale;
      lo_pps = p.offered_pps;
      scale *= 2.0;
    } else {
      hi = scale;
      break;
    }
  }
  if (hi == 0.0 && lo < max_scale) {
    const LoadPoint p = run_load_probe(base, model, sensitivity,
                                       ProbeKind::kClean, max_scale);
    if (passes(p)) return p.offered_pps;
    hi = max_scale;
  }
  if (hi == 0.0) return lo_pps;

  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const LoadPoint p =
        run_load_probe(base, model, sensitivity, ProbeKind::kClean, mid);
    if (passes(p)) {
      lo = mid;
      lo_pps = p.offered_pps;
    } else {
      hi = mid;
    }
  }
  return lo_pps;
}

inline double system_throughput_pps(const TestbedConfig& base,
                                    const products::ProductModel& model,
                                    double sensitivity,
                                    double overload_scale) {
  const std::vector<double> ladder = {
      overload_scale / 8.0, overload_scale / 4.0, overload_scale / 3.0,
      overload_scale * 0.4, overload_scale / 2.0, overload_scale * 0.75,
      overload_scale};
  std::vector<double> processed;
  for (const double scale : ladder) {
    processed.push_back(
        run_load_probe(base, model, sensitivity, ProbeKind::kClean, scale)
            .processed_pps);
  }
  return *std::max_element(processed.begin(), processed.end());
}

inline std::optional<double> lethal_dose_pps(
    const TestbedConfig& base, const products::ProductModel& model,
    double sensitivity, double max_scale) {
  for (double scale = 2.0; scale <= max_scale; scale *= 1.6) {
    const LoadPoint p =
        run_load_probe(base, model, sensitivity, ProbeKind::kFlood, scale);
    if (p.failures > 0) return p.offered_pps;
  }
  return std::nullopt;
}

inline double induced_latency_sec(const TestbedConfig& base,
                                  const products::ProductModel& model,
                                  double sensitivity) {
  const LoadPoint a = run_load_probe(base, model, sensitivity,
                                     ProbeKind::kLatency, base.rate_scale);
  const LoadPoint b =
      run_load_probe(base, model, sensitivity, ProbeKind::kLatencyBaseline,
                     base.rate_scale);
  return std::max(0.0,
                  a.mean_delivery_latency_sec - b.mean_delivery_latency_sec);
}

inline LoadMetrics load_metrics(const TestbedConfig& base,
                                const products::ProductModel& model,
                                double sensitivity,
                                const LoadSearchOptions& options) {
  LoadMetrics m;
  m.zero_loss_pps =
      zero_loss_pps(base, model, sensitivity, options.zero_loss_max_scale,
                    options.loss_epsilon, options.iterations);
  m.system_throughput_pps =
      system_throughput_pps(base, model, sensitivity, options.overload_scale);
  m.lethal_dose_pps =
      lethal_dose_pps(base, model, sensitivity, options.lethal_max_scale);
  m.induced_latency_sec = induced_latency_sec(base, model, sensitivity);
  return m;
}

}  // namespace idseval::harness::oracle
