#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace idseval::bench {

double Summary::spread() const noexcept {
  return median == 0.0 ? 0.0 : (q3 - q1) / std::fabs(median);
}

Summary summarize(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("summarize: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Summary s;
  s.n = n;
  s.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"), n=4: position i*(n+1)/4,
  // clamped to [1, n-1], interpolated between the neighbouring ranks.
  const auto quartile = [&values, n](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

results::Doc summary_doc(const Summary& s) {
  results::Doc d = results::Doc::object();
  d.set("n", static_cast<unsigned long>(s.n))
      .set("median", s.median)
      .set("q1", s.q1)
      .set("q3", s.q3);
  return d;
}

Summary summary_from_doc(const results::Doc& doc) {
  const auto get = [&doc](std::string_view key) -> const results::Doc& {
    const results::Doc* v = doc.find(key);
    if (v == nullptr) {
      throw std::invalid_argument("summary lacks " + std::string(key));
    }
    return *v;
  };
  Summary s;
  s.n = static_cast<std::size_t>(get("n").as_u64());
  s.median = get("median").as_double();
  s.q1 = get("q1").as_double();
  s.q3 = get("q3").as_double();
  return s;
}

Better parse_better(std::string_view text) {
  if (text == "lower") return Better::kLower;
  if (text == "higher") return Better::kHigher;
  throw std::invalid_argument("better must be lower or higher, got: " +
                              std::string(text));
}

std::string_view to_string(Better better) noexcept {
  return better == Better::kLower ? "lower" : "higher";
}

double worse_share(double base, double current, Better better) noexcept {
  if (base == 0.0) return 0.0;
  const double delta =
      better == Better::kLower ? current - base : base - current;
  return delta / std::fabs(base);
}

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kRegression:
      return "REGRESSION";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Verdict compare_medians(const Summary& base, const Summary& current,
                        Better better, double bound) noexcept {
  if (base.spread() > bound || current.spread() > bound) {
    return Verdict::kUnresolved;
  }
  return worse_share(base.median, current.median, better) > bound
             ? Verdict::kRegression
             : Verdict::kOk;
}

AbResult ab_compare(const std::vector<double>& base,
                    const std::vector<double>& change, Better better) {
  if (base.empty() || base.size() != change.size()) {
    throw std::invalid_argument("ab_compare: need equal, non-empty pairs");
  }
  AbResult r;
  r.pairs = base.size();
  for (std::size_t i = 0; i < r.pairs; ++i) {
    if (worse_share(base[i], change[i], better) < 0.0) ++r.wins;
  }
  r.base = summarize(base);
  r.change = summarize(change);
  const double base_iqr = r.base.q3 - r.base.q1;
  r.gain = 10 * r.wins >= 9 * r.pairs &&
           std::fabs(r.change.median - r.base.median) > base_iqr;
  return r;
}

}  // namespace idseval::bench
