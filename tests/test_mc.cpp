#include "mc/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"

namespace hpcarbon::mc {
namespace {

double noisy_model(std::size_t, Rng& rng) {
  // Consumes several draws of mixed kinds so substream defects (correlated
  // low bits, shared state) would surface as distorted statistics.
  return rng.uniform(10.0, 20.0) + rng.normal(0.0, 2.0) +
         rng.exponential(1.0);
}

TEST(Substream, DeterministicPerSeedAndIndex) {
  Rng a = substream(123, 7);
  Rng b = substream(123, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Substream, IndependentAcrossIndicesAndSeeds) {
  Rng a = substream(123, 0);
  Rng b = substream(123, 1);
  Rng c = substream(124, 0);
  // Not a statistical test — just that adjacent indices/seeds do not
  // produce the same stream (the failure mode of weak mixing).
  EXPECT_NE(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Engine, RejectsEmptyPlan) {
  EXPECT_THROW(Engine({0, 1, nullptr}), Error);
  EXPECT_THROW(Engine({-5, 1, nullptr}), Error);
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  ThreadPool serial(1);
  ThreadPool quad(4);
  ThreadPool septa(7);
  const auto run_with = [&](ThreadPool& pool) {
    return Engine({2048, 99, &pool}).run_samples(noisy_model);
  };
  const auto base = run_with(serial);
  const auto four = run_with(quad);
  const auto seven = run_with(septa);
  ASSERT_EQ(base.size(), 2048u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    // EXPECT_EQ, not NEAR: determinism means the same bits, not "close".
    EXPECT_EQ(base[i], four[i]) << "sample " << i;
    EXPECT_EQ(base[i], seven[i]) << "sample " << i;
  }
}

TEST(Engine, NullPoolUsesGlobalAndMatchesExplicitPool) {
  ThreadPool pool(3);
  const auto global_run = Engine({512, 5, nullptr}).run_samples(noisy_model);
  const auto pooled_run = Engine({512, 5, &pool}).run_samples(noisy_model);
  EXPECT_EQ(global_run, pooled_run);
}

TEST(Engine, RunMatchesRunSamples) {
  Engine engine({1024, 11, nullptr});
  const auto raw = engine.run_samples(noisy_model);
  const Distribution d = engine.run(noisy_model);
  ASSERT_EQ(d.samples(), 1024);
  double acc = 0;
  for (double x : raw) acc += x;
  EXPECT_DOUBLE_EQ(d.mean(), acc / 1024.0);
}

TEST(Engine, RunMultiSharesOneSubstreamPerSample) {
  Engine engine({256, 3, nullptr});
  const auto dists = engine.run_multi(
      2, [](std::size_t i, Rng& rng, std::span<double> out) {
        out[0] = noisy_model(i, rng);
        out[1] = out[0] * 2.0;
      });
  ASSERT_EQ(dists.size(), 2u);
  // Output 0 must be exactly the single-output run (same substreams).
  const auto single = engine.run_samples(noisy_model);
  const Distribution expected{std::vector<double>(single)};
  EXPECT_DOUBLE_EQ(dists[0].mean(), expected.mean());
  EXPECT_DOUBLE_EQ(dists[1].mean(), 2.0 * expected.mean());
  EXPECT_DOUBLE_EQ(dists[1].p95(), 2.0 * expected.p95());
}

TEST(Engine, RunMultiBitIdenticalAcrossThreadCounts) {
  ThreadPool serial(1);
  ThreadPool many(5);
  const auto run_with = [&](ThreadPool& pool) {
    return Engine({512, 17, &pool})
        .run_multi(3, [](std::size_t i, Rng& rng, std::span<double> out) {
          out[0] = noisy_model(i, rng);
          out[1] = rng.uniform();
          out[2] = out[0] + out[1];
        });
  };
  const auto a = run_with(serial);
  const auto b = run_with(many);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(a[k].sorted(), b[k].sorted());
  }
}

TEST(Distribution, SummaryStatisticsMatchStats) {
  std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  const Distribution d{std::vector<double>(xs)};
  EXPECT_EQ(d.samples(), 5);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.p50(), 3.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(d.stddev(), std::sqrt(2.5));
}

TEST(Distribution, EmptyDistributionGuards) {
  const Distribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.samples(), 0);
  EXPECT_THROW(d.quantile(0.5), Error);
}

}  // namespace
}  // namespace hpcarbon::mc
