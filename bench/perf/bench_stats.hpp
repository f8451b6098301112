// Order statistics and verdict rules shared by the benchmark's suite,
// --compare gate and A/B report. Kept free of simulation code so the
// maths is unit-testable on its own.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "results/doc.hpp"

namespace idseval::bench {

/// Median and quartiles of a sample. Quartiles follow Python's
/// statistics.quantiles(values, n=4) ("exclusive" method), so the numbers
/// printed here match what a script computes from the same values.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  /// Interquartile distance as a share of the median (0 when the median
  /// is 0, so a flat zero series reads as perfectly steady).
  double spread() const noexcept;
};

/// Throws std::invalid_argument on an empty sample.
Summary summarize(std::vector<double> values);

/// {"n", "median", "q1", "q3"}: how summaries are stored in the suite's
/// JSON and read back by --compare.
results::Doc summary_doc(const Summary& s);
/// Throws std::invalid_argument when a key is missing or not a number.
Summary summary_from_doc(const results::Doc& doc);

enum class Better { kLower, kHigher };

Better parse_better(std::string_view text);  ///< "lower" | "higher"
std::string_view to_string(Better better) noexcept;

/// How much worse `current` is than `base`, as a share of `base`
/// (negative when better). 0 when base is 0.
double worse_share(double base, double current, Better better) noexcept;

enum class Verdict {
  kOk,          ///< Within the bound.
  kRegression,  ///< Worse by more than the bound, spread within it.
  kUnresolved,  ///< Quartile spread wider than the bound: no verdict.
};

std::string_view to_string(Verdict verdict) noexcept;

/// The --compare rule for one (metric, workload) pair: unresolved when
/// either side's quartile spread exceeds `bound`, a regression when the
/// current median is worse than the base median by more than `bound`,
/// otherwise ok.
Verdict compare_medians(const Summary& base, const Summary& current,
                        Better better, double bound) noexcept;

/// Outcome of alternating base/change pairs on one (metric, workload).
struct AbResult {
  Summary base;
  Summary change;
  std::size_t pairs = 0;
  std::size_t wins = 0;  ///< Pairs where the change reads better; ties don't.
  /// The claim rule: the change wins at least nine tenths of all pairs
  /// and the medians differ by more than the base's own quartile
  /// distance.
  bool gain = false;
};

/// `base[i]` and `change[i]` are the i-th pair; throws
/// std::invalid_argument when the lengths differ or are zero.
AbResult ab_compare(const std::vector<double>& base,
                    const std::vector<double>& change, Better better);

}  // namespace idseval::bench
