// Order statistics, the --compare verdict rule, the A/B claim rule and the
// suite JSON round trip of idseval_bench.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench_stats.hpp"
#include "results/doc.hpp"

namespace idseval::bench {
namespace {

Summary of(double median, double q1, double q3) {
  Summary s;
  s.n = 10;
  s.median = median;
  s.q1 = q1;
  s.q3 = q3;
  return s;
}

TEST(Summarize, MatchesPythonStatisticsQuantiles) {
  // Expected values from Python 3: statistics.median(v) and
  // statistics.quantiles(v, n=4).
  const Summary ten = summarize({7, 1, 9, 3, 5, 2, 8, 10, 4, 6});
  EXPECT_EQ(ten.n, 10u);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Summary five = summarize({3.0, 1.0, 2.0, 5.0, 4.0});
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);

  const Summary four = summarize({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(four.median, 25.0);
  EXPECT_DOUBLE_EQ(four.q1, 12.5);
  EXPECT_DOUBLE_EQ(four.q3, 37.5);
}

TEST(Summarize, SmallSamples) {
  const Summary one = summarize({4.0});
  EXPECT_DOUBLE_EQ(one.median, 4.0);
  EXPECT_DOUBLE_EQ(one.q1, 4.0);
  EXPECT_DOUBLE_EQ(one.q3, 4.0);
  // Python clamps the rank and extrapolates: quantiles([1, 2], n=4) is
  // [0.75, 1.5, 2.25].
  const Summary two = summarize({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(Summarize, SpreadIsQuartileDistanceOverMedian) {
  EXPECT_DOUBLE_EQ(of(100.0, 95.0, 105.0).spread(), 0.1);
  EXPECT_DOUBLE_EQ(of(0.0, 0.0, 0.0).spread(), 0.0);
}

TEST(Compare, WorseShareFollowsDirection) {
  EXPECT_DOUBLE_EQ(worse_share(100.0, 110.0, Better::kLower), 0.1);
  EXPECT_DOUBLE_EQ(worse_share(100.0, 90.0, Better::kHigher), 0.1);
  EXPECT_DOUBLE_EQ(worse_share(100.0, 110.0, Better::kHigher), -0.1);
  EXPECT_DOUBLE_EQ(worse_share(0.0, 5.0, Better::kLower), 0.0);
}

TEST(Compare, VerdictsAgainstTheBound) {
  const Summary base = of(100.0, 99.0, 101.0);
  // 5% slower on a lower-is-better metric, bound 10%: ok.
  EXPECT_EQ(compare_medians(base, of(105.0, 104.0, 106.0), Better::kLower,
                            0.10),
            Verdict::kOk);
  // 15% slower: regression.
  EXPECT_EQ(compare_medians(base, of(115.0, 114.0, 116.0), Better::kLower,
                            0.10),
            Verdict::kRegression);
  // 15% lower throughput on a higher-is-better metric: regression.
  EXPECT_EQ(compare_medians(base, of(85.0, 84.0, 86.0), Better::kHigher,
                            0.10),
            Verdict::kRegression);
  // Much better is never a regression.
  EXPECT_EQ(compare_medians(base, of(50.0, 49.0, 51.0), Better::kLower, 0.10),
            Verdict::kOk);
}

TEST(Compare, WideSpreadIsUnresolved) {
  const Summary base = of(100.0, 99.0, 101.0);
  // Current quartiles 80..140 around 115: spread 52% > 10%.
  EXPECT_EQ(compare_medians(base, of(115.0, 80.0, 140.0), Better::kLower,
                            0.10),
            Verdict::kUnresolved);
  // A noisy base makes any verdict unresolved too.
  EXPECT_EQ(compare_medians(of(100.0, 70.0, 130.0), base, Better::kLower,
                            0.10),
            Verdict::kUnresolved);
}

TEST(AbCompare, ClaimNeedsNineTenthsOfPairsAndADistinctMedian) {
  const std::vector<double> base = {100, 101, 99, 100, 102,
                                    98,  100, 101, 99, 100};
  // Every pair 10% faster.
  std::vector<double> faster;
  for (const double b : base) faster.push_back(b * 0.9);
  const AbResult gain = ab_compare(base, faster, Better::kLower);
  EXPECT_EQ(gain.pairs, 10u);
  EXPECT_EQ(gain.wins, 10u);
  EXPECT_TRUE(gain.gain);

  // Eight wins of ten is not enough.
  std::vector<double> mostly = faster;
  mostly[0] = 200;
  mostly[1] = 200;
  const AbResult short_of = ab_compare(base, mostly, Better::kLower);
  EXPECT_EQ(short_of.wins, 8u);
  EXPECT_FALSE(short_of.gain);

  // Wins everywhere, but by less than the base's own quartile distance.
  std::vector<double> tiny;
  for (const double b : base) tiny.push_back(b - 0.01);
  const AbResult noise = ab_compare(base, tiny, Better::kLower);
  EXPECT_EQ(noise.wins, 10u);
  EXPECT_FALSE(noise.gain);

  // Ties are not wins.
  const AbResult ties = ab_compare(base, base, Better::kHigher);
  EXPECT_EQ(ties.wins, 0u);
  EXPECT_FALSE(ties.gain);

  EXPECT_THROW(ab_compare({1.0}, {}, Better::kLower), std::invalid_argument);
}

TEST(SummaryDoc, RoundTripsThroughJson) {
  const Summary s = summarize({0.123456789012345, 1.0 / 3.0, 2.5e-9, 7.0});
  const results::Doc parsed =
      results::parse_json(results::to_json(summary_doc(s)));
  const Summary back = summary_from_doc(parsed);
  EXPECT_EQ(back.n, s.n);
  EXPECT_EQ(back.median, s.median);
  EXPECT_EQ(back.q1, s.q1);
  EXPECT_EQ(back.q3, s.q3);

  EXPECT_THROW(summary_from_doc(results::parse_json(R"({"n": 3})")),
               std::invalid_argument);
}

TEST(Better, ParsesBenchmarkDirections) {
  EXPECT_EQ(parse_better("lower"), Better::kLower);
  EXPECT_EQ(parse_better("higher"), Better::kHigher);
  EXPECT_EQ(to_string(Better::kHigher), "higher");
  EXPECT_THROW(parse_better("faster"), std::invalid_argument);
}

}  // namespace
}  // namespace idseval::bench
