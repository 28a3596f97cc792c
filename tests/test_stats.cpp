#include "core/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace hpcarbon::stats {
namespace {

TEST(Stats, MeanVarianceStddev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MinMax) {
  std::vector<double> xs = {3.5, -1.0, 7.25, 0.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.25);
}

TEST(Stats, EmptyRangesThrow) {
  std::vector<double> empty;
  EXPECT_THROW(mean(empty), Error);
  EXPECT_THROW(min(empty), Error);
  EXPECT_THROW(max(empty), Error);
  EXPECT_THROW(quantile(empty, 0.5), Error);
}

TEST(Stats, SingleElement) {
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(mean(one), 42.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 42.0);
}

TEST(Stats, QuantileLinearInterpolation) {
  std::vector<double> xs = {1, 2, 3, 4};  // type-7: h = p*(n-1)
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_THROW(quantile(xs, 1.5), Error);
  EXPECT_THROW(quantile(xs, -0.1), Error);
}

// stats::quantile as it was before it selected instead of sorting: the
// copy, the sort, and the interpolation it shared with Summary, kept
// verbatim as the bitwise oracle for the selection.
double sorting_quantile(std::span<const double> xs, double p) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const std::span<const double> sorted = v;
  if (sorted.size() == 1) return sorted.front();
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// Heavy ties: about one distinct value per eight samples, drawn from a
// grid around zero that includes both signed zeros, so equal keys (and
// equal keys with different bits) land on both sides of every rank.
std::vector<double> tied_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto distinct = static_cast<std::int64_t>(n / 8 + 1);
  std::vector<double> v(n);
  for (auto& x : v) {
    const std::int64_t k = rng.uniform_int(-distinct / 2, distinct / 2);
    x = k == 0 ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
               : static_cast<double>(k) * 0.37;
  }
  return v;
}

TEST(Stats, QuantileSelectionMatchesSortBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t n = 1; n <= 2049; ++n) {
    const std::vector<double> xs = tied_sample(n, 0x5EED0000 + n);
    for (const double p : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(bits(quantile(xs, p)), bits(sorting_quantile(xs, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Stats, QuantileErrorsKeepTheirMessages) {
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::vector<double> empty;
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_NE(message([&] { quantile(empty, 0.5); })
                .find("quantile of empty range"),
            std::string::npos);
  // An empty input is reported first, whatever p is.
  EXPECT_NE(message([&] { quantile(empty, 2.0); })
                .find("quantile of empty range"),
            std::string::npos);
  for (const double p : {-0.1, 1.5, std::nan("")}) {
    EXPECT_NE(message([&] { quantile(xs, p); })
                  .find("quantile p outside [0,1]"),
              std::string::npos)
        << "p=" << p;
  }
  // A single sample still checks p.
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), Error);
}

TEST(Stats, QuantileUnsortedInput) {
  std::vector<double> xs = {9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Stats, CovPercent) {
  // mean 10, stddev ~ 2.58 -> CoV ~ 25.8%? use exact: {8,10,12}: sd=2
  std::vector<double> xs = {8, 10, 12};
  EXPECT_NEAR(cov_percent(xs), 20.0, 1e-9);
  std::vector<double> zero_mean = {-1, 1};
  EXPECT_THROW(cov_percent(zero_mean), Error);
}

TEST(Stats, CovPercentNegativeMeanIsPositive) {
  // Regression: CoV is dispersion relative to |mean|; a negative-mean
  // series (mean -10, sd 2) must report +20%, not -20%.
  std::vector<double> xs = {-8, -10, -12};
  EXPECT_NEAR(cov_percent(xs), 20.0, 1e-9);
}

TEST(Stats, BoxStatsFiveNumberSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const BoxStats b = box_stats(xs);
  EXPECT_DOUBLE_EQ(b.median, 50.5);
  EXPECT_NEAR(b.q1, 25.75, 1e-9);
  EXPECT_NEAR(b.q3, 75.25, 1e-9);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  // No outliers: whiskers reach the extremes.
  EXPECT_DOUBLE_EQ(b.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(b.whisker_high, 100.0);
}

TEST(Stats, BoxStatsWhiskersExcludeOutliers) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100};
  const BoxStats b = box_stats(xs);
  EXPECT_LT(b.whisker_high, 100.0);  // 100 is an outlier
  EXPECT_DOUBLE_EQ(b.max, 100.0);
}

TEST(Stats, Histogram) {
  std::vector<double> xs = {0.1, 0.2, 0.55, 0.9, -5.0, 99.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  // -5 clamps into bin 0; 99 and 0.9 into bin 1.
  EXPECT_EQ(h[0], 3u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_THROW(histogram(xs, 1.0, 0.0, 2), Error);
  EXPECT_THROW(histogram(xs, 0.0, 1.0, 0), Error);
}

TEST(Stats, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yn = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
  std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
  std::vector<double> wrong = {1, 2};
  EXPECT_THROW(pearson(x, wrong), Error);
}

TEST(Stats, WelfordMatchesBatch) {
  std::vector<double> xs = {1.5, 2.5, 3.5, 10.0, -4.0, 0.0};
  Welford w;
  for (double x : xs) w.add(x);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_NEAR(w.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(w.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(w.stddev(), stddev(xs), 1e-12);
}

TEST(Stats, WelfordFewSamples) {
  Welford w;
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Stats, SummaryMatchesFreeFunctions) {
  const std::vector<double> xs = {7.5, -1.0, 3.25, 3.25, 12.0, 0.5, 9.75};
  const Summary s(xs);
  EXPECT_EQ(s.count(), xs.size());
  // Moments accumulate over the input order, so bit-identical.
  EXPECT_DOUBLE_EQ(s.mean(), mean(xs));
  EXPECT_DOUBLE_EQ(s.variance(), variance(xs));
  EXPECT_DOUBLE_EQ(s.stddev(), stddev(xs));
  EXPECT_DOUBLE_EQ(s.min(), min(xs));
  EXPECT_DOUBLE_EQ(s.max(), max(xs));
  for (double p : {0.0, 0.05, 0.25, 0.5, 0.62, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(p), quantile(xs, p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(s.median(), median(xs));
  EXPECT_TRUE(std::is_sorted(s.sorted().begin(), s.sorted().end()));
}

TEST(Stats, SummaryOwningConstructorSortsAndKeepsMoments) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  const double m = mean(xs);
  const Summary s(std::move(xs));
  EXPECT_DOUBLE_EQ(s.mean(), m);
  EXPECT_EQ(s.sorted(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Stats, SummaryEdgeCases) {
  const Summary empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.mean(), Error);
  EXPECT_THROW(empty.quantile(0.5), Error);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);

  const Summary one(std::vector<double>{42.0});
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.9), 42.0);
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);

  const Summary s(std::vector<double>{1.0, 2.0});
  EXPECT_THROW(s.quantile(-0.1), Error);
  EXPECT_THROW(s.quantile(1.1), Error);
}

TEST(Stats, BoxStatsMatchesSummaryQuantiles) {
  const std::vector<double> xs = {3.0, 1.0, 9.0, 7.0, 5.0, 100.0};
  const Summary s(xs);
  const BoxStats b = box_stats(xs);
  EXPECT_DOUBLE_EQ(b.q1, s.quantile(0.25));
  EXPECT_DOUBLE_EQ(b.median, s.median());
  EXPECT_DOUBLE_EQ(b.q3, s.quantile(0.75));
  EXPECT_DOUBLE_EQ(b.mean, s.mean());
}

}  // namespace
}  // namespace hpcarbon::stats
