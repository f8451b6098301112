// Parameterized property sweeps over the anchor-based autoscorer: every
// converter must be monotone in its measurement, bounded to the discrete
// 0..4 range, and orientation-correct (better measurements never score
// worse). These properties are what make the scorecard "observable,
// reproducible, quantifiable" (§3.1) when fed by the harness.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "core/autoscore.hpp"
#include "util/rng.hpp"

namespace idseval::core {
namespace {

struct ConverterCase {
  const char* name;
  std::function<Score(double)> convert;
  bool higher_is_better;
  double lo;   ///< Sweep range start.
  double hi;   ///< Sweep range end.
  bool log_sweep;
};

// gtest_discover_tests puts the printed parameter into each ctest name.
// Printed as raw bytes it held the addresses of `name` and `convert`,
// which change from one test discovery to the next; the name alone is
// fixed.
void PrintTo(const ConverterCase& c, std::ostream* os) { *os << c.name; }

class AutoscoreProperty : public ::testing::TestWithParam<ConverterCase> {};

TEST_P(AutoscoreProperty, BoundedAndMonotone) {
  const ConverterCase& c = GetParam();
  int last = c.higher_is_better ? -1 : 5;
  const int steps = 200;
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / steps;
    const double value =
        c.log_sweep ? c.lo * std::pow(c.hi / c.lo, t)
                    : c.lo + t * (c.hi - c.lo);
    const int score = c.convert(value).value();
    EXPECT_GE(score, 0);
    EXPECT_LE(score, 4);
    if (c.higher_is_better) {
      EXPECT_GE(score, last) << c.name << " at " << value;
      last = std::max(last, score);
    } else {
      EXPECT_LE(score, last) << c.name << " at " << value;
      last = std::min(last, score);
    }
  }
}

TEST_P(AutoscoreProperty, ExtremesHitAnchorScores) {
  const ConverterCase& c = GetParam();
  const int at_lo = c.convert(c.lo).value();
  const int at_hi = c.convert(c.hi).value();
  if (c.higher_is_better) {
    EXPECT_EQ(at_lo, 0) << c.name;
    EXPECT_EQ(at_hi, 4) << c.name;
  } else {
    EXPECT_EQ(at_lo, 4) << c.name;
    EXPECT_EQ(at_hi, 0) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Converters, AutoscoreProperty,
    ::testing::Values(
        ConverterCase{"system_throughput",
                      [](double v) { return score_system_throughput(v); },
                      true, 100.0, 1e6, true},
        ConverterCase{"zero_loss",
                      [](double v) {
                        return score_zero_loss_throughput(v);
                      },
                      true, 50.0, 1e6, true},
        ConverterCase{"data_storage",
                      [](double v) { return score_data_storage(v); },
                      false, 100.0, 1e7, true},
        ConverterCase{"induced_latency",
                      [](double v) { return score_induced_latency(v); },
                      false, 1e-6, 0.1, true},
        ConverterCase{"fp_ratio",
                      [](double v) {
                        return score_false_positive_ratio(v);
                      },
                      false, 1e-5, 0.5, true},
        ConverterCase{"host_impact",
                      [](double v) { return score_host_cpu_impact(v); },
                      false, 1e-4, 0.9, true},
        ConverterCase{"timeliness",
                      [](double v) { return score_timeliness(v); },
                      false, 0.01, 1000.0, true},
        ConverterCase{"lethal_ratio",
                      [](double v) {
                        return score_lethal_dose_ratio(v);
                      },
                      true, 1.0, 50.0, true}),
    [](const ::testing::TestParamInfo<ConverterCase>& info) {
      return info.param.name;
    });

TEST(FnRatioProperty, MonotoneInMissesForFixedShare) {
  util::Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    const double share = rng.uniform(0.001, 0.2);
    int last = 5;
    for (double missed = 0.0; missed <= 1.0; missed += 0.05) {
      const int s =
          score_false_negative_ratio(missed * share, share).value();
      EXPECT_LE(s, last);
      last = std::min(last, s);
    }
  }
}

}  // namespace
}  // namespace idseval::core
