// Aggregation estimators (Section 4.2): GEE formula and Algorithm 2
// maintenance, the MLE reconstruction's convergence and bias direction,
// the Algorithm 3 recomputation interval, and the γ² chooser.

#include "estimators/group_count.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/zipf.h"

namespace qpi {
namespace {

TEST(Gee, FormulaMatchesDefinition) {
  FrequencyStats s;
  // Stream of 4 tuples out of |T| = 16: groups {a:1, b:1, c:2}.
  s.Observe(1);
  s.Observe(2);
  s.Observe(3);
  s.Observe(3);
  // D = sqrt(16/4) * f1 + sum_{j>=2} f_j = 2*2 + 1 = 5.
  EXPECT_DOUBLE_EQ(GeeEstimate(s, 16.0), 5.0);
}

TEST(Gee, FullStreamReturnsExactDistinct) {
  FrequencyStats s;
  for (uint64_t k : {1, 2, 3, 3, 2, 1, 4}) s.Observe(k);
  EXPECT_DOUBLE_EQ(GeeEstimate(s, 7.0), 4.0);
}

TEST(Gee, NeverExceedsTotalSize) {
  FrequencyStats s;
  for (uint64_t k = 0; k < 100; ++k) s.Observe(k);  // all singletons
  EXPECT_LE(GeeEstimate(s, 1000000.0), 1000000.0);
  // sqrt(1e6/100)*100 = 10000 — the classic GEE overestimate on low skew.
  EXPECT_DOUBLE_EQ(GeeEstimate(s, 1000000.0), 10000.0);
}

TEST(Mle, EmptyStreamIsZero) {
  FrequencyStats s;
  EXPECT_DOUBLE_EQ(MleEstimate(s, 100.0), 0.0);
}

TEST(Mle, FullStreamReturnsExactDistinct) {
  FrequencyStats s;
  for (uint64_t k : {5, 6, 6, 7, 7, 7}) s.Observe(k);
  EXPECT_DOUBLE_EQ(MleEstimate(s, 6.0), 3.0);
}

TEST(Mle, ConvergesOnUniformData) {
  const uint32_t kDomain = 5000;
  const uint64_t kTotal = 150000;
  ZipfGenerator zipf(0.0, kDomain);
  Pcg32 rng(9);
  FrequencyStats s;
  std::set<int64_t> truth;
  std::vector<int64_t> stream;
  for (uint64_t i = 0; i < kTotal; ++i) {
    int64_t v = zipf.Next(&rng);
    stream.push_back(v);
    truth.insert(v);
  }
  double exact = static_cast<double>(truth.size());
  // After 10% of a uniform stream, MLE should be within 10% of the truth.
  for (uint64_t i = 0; i < kTotal / 10; ++i) {
    s.Observe(static_cast<uint64_t>(stream[i]));
  }
  double at10 = MleEstimate(s, static_cast<double>(kTotal));
  EXPECT_NEAR(at10, exact, 0.10 * exact);
  // And the estimate tightens as more data arrives.
  for (uint64_t i = kTotal / 10; i < kTotal / 2; ++i) {
    s.Observe(static_cast<uint64_t>(stream[i]));
  }
  double at50 = MleEstimate(s, static_cast<double>(kTotal));
  EXPECT_LE(std::abs(at50 - exact), std::abs(at10 - exact) + 1.0);
}

TEST(Mle, OverestimatesAtMostMildlyAndNeverOnSkew) {
  // The paper: MLE "rarely overestimates ... prone to underestimation".
  // Empirically: on skewed data it always underestimates; on uniform data
  // with sparse coverage (~2.5 draws/group here) it can overestimate, but
  // only mildly (~10%), far from GEE's multiples.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    bool skewed = seed % 2 == 1;
    ZipfGenerator zipf(skewed ? 1.0 : 0.0, 2000, seed);
    Pcg32 rng(100 + seed);
    FrequencyStats s;
    std::set<int64_t> truth;
    std::vector<int64_t> stream;
    for (int i = 0; i < 50000; ++i) {
      int64_t v = zipf.Next(&rng);
      stream.push_back(v);
      truth.insert(v);
    }
    for (int i = 0; i < 5000; ++i) {
      s.Observe(static_cast<uint64_t>(stream[static_cast<size_t>(i)]));
    }
    double est = MleEstimate(s, 50000.0);
    double exact = static_cast<double>(truth.size());
    if (skewed) {
      EXPECT_LE(est, 1.01 * exact) << "seed " << seed;
    } else {
      EXPECT_LE(est, 1.15 * exact) << "seed " << seed;
    }
  }
}

TEST(GeeVsMle, GeeWinsOnHighSkewMleOnLowSkew) {
  auto error_at_10pct = [](double z, bool use_gee) {
    ZipfGenerator zipf(z, 10000, 3);
    Pcg32 rng(55);
    FrequencyStats s;
    std::set<int64_t> truth;
    std::vector<int64_t> stream;
    const uint64_t kTotal = 150000;
    for (uint64_t i = 0; i < kTotal; ++i) {
      int64_t v = zipf.Next(&rng);
      stream.push_back(v);
      truth.insert(v);
    }
    for (uint64_t i = 0; i < kTotal / 10; ++i) {
      s.Observe(static_cast<uint64_t>(stream[i]));
    }
    double est = use_gee ? GeeEstimate(s, static_cast<double>(kTotal))
                         : MleEstimate(s, static_cast<double>(kTotal));
    return std::abs(est - static_cast<double>(truth.size())) /
           static_cast<double>(truth.size());
  };
  // Low skew: MLE clearly better.
  EXPECT_LT(error_at_10pct(0.0, /*use_gee=*/false),
            error_at_10pct(0.0, /*use_gee=*/true));
  // High skew: GEE at least competitive (and cheaper).
  EXPECT_LE(error_at_10pct(2.0, /*use_gee=*/true),
            error_at_10pct(2.0, /*use_gee=*/false) + 0.05);
}

TEST(Adaptive, ChooserPicksMleOnLowSkewGeeOnHighSkew) {
  Pcg32 rng(2);
  AdaptiveGroupEstimator low([] { return 100000.0; });
  ZipfGenerator flat(0.0, 1000);
  for (int i = 0; i < 20000; ++i) {
    low.Observe(static_cast<uint64_t>(flat.Next(&rng)));
  }
  EXPECT_LT(low.Gamma2(), kGamma2Threshold);
  EXPECT_EQ(low.ChosenEstimator(), "MLE");

  AdaptiveGroupEstimator high([] { return 100000.0; });
  ZipfGenerator steep(2.0, 1000);
  for (int i = 0; i < 20000; ++i) {
    high.Observe(static_cast<uint64_t>(steep.Next(&rng)));
  }
  EXPECT_GE(high.Gamma2(), kGamma2Threshold);
  EXPECT_EQ(high.ChosenEstimator(), "GEE");
}

TEST(Adaptive, PinnedPoliciesReportThatEstimator) {
  AdaptiveGroupEstimator gee([] { return 1000.0; }, GroupPolicy::kGee);
  AdaptiveGroupEstimator mle([] { return 1000.0; }, GroupPolicy::kMle);
  Pcg32 rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.NextBounded(50);
    gee.Observe(v);
    mle.Observe(v);
  }
  EXPECT_EQ(gee.ChosenEstimator(), "GEE");
  EXPECT_EQ(mle.ChosenEstimator(), "MLE");
  // GEE-only never recomputes the MLE.
  EXPECT_EQ(gee.mle_recompute_count(), 0u);
  EXPECT_GT(mle.mle_recompute_count(), 0u);
}

TEST(Adaptive, Algorithm3DoublesIntervalWhenStable) {
  // A dense repeating stream stabilizes the MLE almost immediately, so the
  // recompute count should be far below t / lower_interval.
  const double kTotal = 100000;
  AdaptiveGroupEstimator est([kTotal] { return kTotal; }, GroupPolicy::kMle);
  for (int i = 0; i < 100000; ++i) {
    est.Observe(static_cast<uint64_t>(i % 10));
  }
  // 100 and 3200 tuples at |T| = 100000.
  const uint64_t lower =
      static_cast<uint64_t>(kMleLowerIntervalFraction * kTotal);
  const uint64_t upper =
      static_cast<uint64_t>(kMleUpperIntervalFraction * kTotal);
  ASSERT_EQ(lower, 100u);
  ASSERT_EQ(upper, 3200u);
  uint64_t naive_recomputes = 100000 / lower;
  EXPECT_LT(est.mle_recompute_count(), naive_recomputes / 5);
  EXPECT_GE(est.mle_recompute_count(), 100000 / upper - 1);
}

TEST(Adaptive, Algorithm3ResetsIntervalWhenEstimateMoves) {
  // Alternate between two very different regimes to force resets: the
  // recompute count must stay well above the all-stable floor.
  AdaptiveGroupEstimator est([] { return 200000.0; }, GroupPolicy::kMle);
  Pcg32 rng(4);
  for (int i = 0; i < 100000; ++i) {
    // Growing domain → estimate keeps moving upward.
    est.Observe(rng.NextBounded(static_cast<uint32_t>(10 + i / 2)));
  }
  EXPECT_GT(est.mle_recompute_count(), 200000 / 6400);
}

class AdaptiveAccuracySweep
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(AdaptiveAccuracySweep, AdaptiveTracksBetterComponentWithin25Pct) {
  auto [z, domain] = GetParam();
  const uint64_t kTotal = 100000;
  ZipfGenerator zipf(z, domain, 5);
  Pcg32 rng(500 + static_cast<uint64_t>(z * 10) + domain);
  std::vector<int64_t> stream;
  std::set<int64_t> truth;
  for (uint64_t i = 0; i < kTotal; ++i) {
    int64_t v = zipf.Next(&rng);
    stream.push_back(v);
    truth.insert(v);
  }
  AdaptiveGroupEstimator adaptive([] { return double(kTotal); });
  for (uint64_t i = 0; i < kTotal / 10; ++i) {
    adaptive.Observe(static_cast<uint64_t>(stream[i]));
  }
  double exact = static_cast<double>(truth.size());
  double err_adaptive = std::abs(adaptive.Estimate() - exact) / exact;
  double err_gee = std::abs(adaptive.GeeOnly() - exact) / exact;
  double err_mle =
      std::abs(MleEstimate(adaptive.stats(), double(kTotal)) - exact) / exact;
  // The γ² chooser is a heuristic: it must never do catastrophically worse
  // than the better component. (At z=2 with a tiny domain GEE is chosen
  // even though MLE happens to win — the regime Table 1 documents. The
  // small slack covers the adaptive MLE lagging one Algorithm-3 interval
  // behind the freshly computed reference.)
  EXPECT_LE(err_adaptive, std::max(err_gee, err_mle) + 0.05)
      << "z=" << z << " domain=" << domain;
  EXPECT_LE(err_adaptive, std::min(err_gee, err_mle) + 0.50)
      << "z=" << z << " domain=" << domain;
}

INSTANTIATE_TEST_SUITE_P(
    SkewDomain, AdaptiveAccuracySweep,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.0),
                       ::testing::Values(100u, 1000u, 10000u)));

}  // namespace
}  // namespace qpi
