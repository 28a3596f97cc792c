#include "core/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.h"
#include "core/stats.h"

namespace hpcarbon {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeAndMoments) {
  Rng rng(8);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(10.0, 20.0));
  EXPECT_GE(*std::min_element(xs.begin(), xs.end()), 10.0);
  EXPECT_LT(*std::max_element(xs.begin(), xs.end()), 20.0);
  EXPECT_NEAR(stats::mean(xs), 15.0, 0.1);
  EXPECT_THROW(rng.uniform(5.0, 1.0), Error);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 0);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(stats::mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stats::stddev(xs), 1.0, 0.02);
  std::vector<double> ys;
  for (int i = 0; i < 50000; ++i) ys.push_back(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats::mean(ys), 10.0, 0.06);
  EXPECT_NEAR(stats::stddev(ys), 3.0, 0.06);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.exponential(2.0));
  EXPECT_NEAR(stats::mean(xs), 0.5, 0.02);
  EXPECT_GE(*std::min_element(xs.begin(), xs.end()), 0.0);
  EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Ar1, StationaryMoments) {
  Rng rng(99);
  Ar1 ar(0.9, rng);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(ar.step());
  // Unit-variance stationary distribution.
  EXPECT_NEAR(stats::mean(xs), 0.0, 0.1);
  EXPECT_NEAR(stats::stddev(xs), 1.0, 0.1);
}

TEST(Ar1, AutocorrelationMatchesRho) {
  Rng rng(100);
  const double rho = 0.8;
  Ar1 ar(rho, rng);
  std::vector<double> x0, x1;
  double prev = ar.step();
  for (int i = 0; i < 100000; ++i) {
    const double cur = ar.step();
    x0.push_back(prev);
    x1.push_back(cur);
    prev = cur;
  }
  // Pearson correlation of consecutive steps.
  const double m0 = stats::mean(x0), m1 = stats::mean(x1);
  double s01 = 0, s00 = 0, s11 = 0;
  for (std::size_t i = 0; i < x0.size(); ++i) {
    s01 += (x0[i] - m0) * (x1[i] - m1);
    s00 += (x0[i] - m0) * (x0[i] - m0);
    s11 += (x1[i] - m1) * (x1[i] - m1);
  }
  EXPECT_NEAR(s01 / std::sqrt(s00 * s11), rho, 0.02);
}

TEST(Ar1, RejectsInvalidRho) {
  Rng rng(1);
  EXPECT_THROW(Ar1(1.0, rng), Error);
  EXPECT_THROW(Ar1(-0.1, rng), Error);
}

}  // namespace
}  // namespace hpcarbon
