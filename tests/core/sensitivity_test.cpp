#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::core {
namespace {

std::vector<Scorecard> two_products() {
  Scorecard a("Alpha");
  a.set(MetricId::kTimeliness, Score(4));
  a.set(MetricId::kThreeYearCostOfOwnership, Score(0));
  Scorecard b("Beta");
  b.set(MetricId::kTimeliness, Score(1));
  b.set(MetricId::kThreeYearCostOfOwnership, Score(4));
  return {a, b};
}

TEST(RankProductsTest, OrdersByTotal) {
  const auto cards = two_products();
  WeightSet w;
  w.set(MetricId::kTimeliness, 5.0);  // Alpha 20 vs Beta 5
  w.set(MetricId::kThreeYearCostOfOwnership, 1.0);  // +0 vs +4
  const auto order = rank_products(cards, w);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(RankProductsTest, StableOnTies) {
  Scorecard a("A");
  Scorecard b("B");
  a.set(MetricId::kTimeliness, Score(2));
  b.set(MetricId::kTimeliness, Score(2));
  WeightSet w;
  w.set(MetricId::kTimeliness, 1.0);
  const std::vector<Scorecard> cards = {a, b};
  const auto order = rank_products(cards, w);
  EXPECT_EQ(order[0], 0u);  // input order preserved
}

TEST(WinnerFlipTest, ExactFlipPoint) {
  // Alpha total = 5k*4 + 0 (timeliness weight k*5), Beta = 5k + 4.
  // With w_time = 5: Alpha 20, Beta 5+4 = 9 -> Alpha wins by 11.
  // Scaling w_time by k: Alpha 20k, Beta 5k + 4. Flip at 15k = 4 ->
  // k = 4/15 ~ 0.267.
  const auto cards = two_products();
  WeightSet w;
  w.set(MetricId::kTimeliness, 5.0);
  w.set(MetricId::kThreeYearCostOfOwnership, 1.0);
  const auto flip = winner_flip_scale(cards, w, MetricId::kTimeliness);
  ASSERT_TRUE(flip.has_value());
  EXPECT_NEAR(*flip, 4.0 / 15.0, 1e-9);

  // Verify: applying the flip scale actually changes the winner.
  WeightSet flipped = w;
  flipped.set(MetricId::kTimeliness, 5.0 * (*flip) * 0.99);
  EXPECT_EQ(rank_products(cards, flipped)[0], 1u);
}

TEST(WinnerFlipTest, GrowingWeightCanFlipToo) {
  const auto cards = two_products();
  WeightSet w;
  w.set(MetricId::kTimeliness, 5.0);
  w.set(MetricId::kThreeYearCostOfOwnership, 1.0);
  // Growing the cost weight favours Beta (U: 4 vs 0). Gap 11, slope 4.
  const auto flip =
      winner_flip_scale(cards, w, MetricId::kThreeYearCostOfOwnership);
  ASSERT_TRUE(flip.has_value());
  EXPECT_NEAR(*flip, 1.0 + 11.0 / 4.0, 1e-9);
  EXPECT_GT(*flip, 1.0);
}

TEST(WinnerFlipTest, UnweightedMetricGivesNothing) {
  const auto cards = two_products();
  WeightSet w;
  w.set(MetricId::kTimeliness, 5.0);
  EXPECT_FALSE(
      winner_flip_scale(cards, w, MetricId::kVisibility).has_value());
}

TEST(WinnerFlipTest, EqualScoresNeverFlip) {
  Scorecard a("A");
  a.set(MetricId::kTimeliness, Score(3));
  a.set(MetricId::kVisibility, Score(4));
  Scorecard b("B");
  b.set(MetricId::kTimeliness, Score(3));  // same U on this metric
  b.set(MetricId::kVisibility, Score(1));
  const std::vector<Scorecard> cards = {a, b};
  WeightSet w;
  w.set(MetricId::kTimeliness, 2.0);
  w.set(MetricId::kVisibility, 1.0);
  EXPECT_FALSE(
      winner_flip_scale(cards, w, MetricId::kTimeliness).has_value());
}

TEST(WinnerFlipTest, SingleProductNothingToFlip) {
  const std::vector<Scorecard> one = {Scorecard("Solo")};
  WeightSet w;
  w.set(MetricId::kTimeliness, 1.0);
  EXPECT_FALSE(
      winner_flip_scale(one, w, MetricId::kTimeliness).has_value());
}

TEST(WeightRobustnessTest, CoversAllWeightedMetricsSortedByFragility) {
  const auto cards = two_products();
  WeightSet w;
  w.set(MetricId::kTimeliness, 5.0);
  w.set(MetricId::kThreeYearCostOfOwnership, 1.0);
  w.set(MetricId::kVisibility, 0.0);  // zero weight: excluded
  const auto robustness = weight_robustness(cards, w);
  ASSERT_EQ(robustness.size(), 2u);
  // Cost flip (3.75x, |log|~1.32) is less fragile than timeliness flip
  // (0.267x, |log|~1.32)... compute: log(3.75)=1.3218, log(0.2667)=-1.3218
  // — equal distance; stable sort keeps map order (cost enum < timeliness
  // is false: kThreeYearCost=12 < kTimeliness=42) so first is cost.
  for (const auto& entry : robustness) {
    EXPECT_TRUE(entry.flip_scale.has_value());
  }
}

TEST(WeightRobustnessTest, FlipScaleVerifiedByPerturbation) {
  // Property: perturbing just past the reported flip factor changes the
  // ranking; perturbing just inside it does not.
  util::Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    std::vector<Scorecard> cards;
    for (int p = 0; p < 3; ++p) {
      Scorecard card(util::cat("P", p));
      for (int m = 0; m < 6; ++m) {
        card.set(static_cast<MetricId>(m),
                 Score(static_cast<int>(rng.uniform_u64(0, 4))));
      }
      cards.push_back(card);
    }
    WeightSet w;
    for (int m = 0; m < 6; ++m) {
      w.set(static_cast<MetricId>(m), rng.uniform(0.5, 5.0));
    }
    const auto baseline_winner = rank_products(cards, w)[0];
    for (const auto& entry : weight_robustness(cards, w)) {
      if (!entry.flip_scale) continue;
      const double k = *entry.flip_scale;
      WeightSet past = w;
      // Step just past the crossing, in the right direction.
      const double past_k = k > 1.0 ? k * 1.01 : k * 0.99;
      past.set(entry.metric, entry.weight * past_k);
      EXPECT_NE(rank_products(cards, past)[0], baseline_winner)
          << "metric " << to_string(entry.metric) << " k=" << k;
    }
  }
}

TEST(WinnerFlipTest, ExactTieReportsUnitScaleAsFragile) {
  // A and B tie exactly (totals 6 vs 6 with unit weights) but differ on
  // both metrics, so any perturbation of either weight flips the winner.
  // The crossing sits at k = 1.0; it used to be skipped (gap == 0
  // challengers were dropped), hiding the most fragile decision of all.
  Scorecard a("A");
  a.set(MetricId::kTimeliness, Score(4));
  a.set(MetricId::kThreeYearCostOfOwnership, Score(2));
  Scorecard b("B");
  b.set(MetricId::kTimeliness, Score(2));
  b.set(MetricId::kThreeYearCostOfOwnership, Score(4));
  const std::vector<Scorecard> cards = {a, b};
  WeightSet w;
  w.set(MetricId::kTimeliness, 1.0);
  w.set(MetricId::kThreeYearCostOfOwnership, 1.0);

  for (const MetricId metric :
       {MetricId::kTimeliness, MetricId::kThreeYearCostOfOwnership}) {
    const auto flip = winner_flip_scale(cards, w, metric);
    ASSERT_TRUE(flip.has_value()) << to_string(metric);
    EXPECT_DOUBLE_EQ(*flip, 1.0) << to_string(metric);
  }

  // k = 1.0 has zero log-distance from the baseline: the report must
  // call it out as FRAGILE.
  const std::string report = render_weight_robustness(cards, w);
  EXPECT_NE(report.find("1.00x"), std::string::npos) << report;
  EXPECT_NE(report.find("FRAGILE"), std::string::npos) << report;
}

}  // namespace
}  // namespace idseval::core
