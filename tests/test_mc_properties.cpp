// Long-running Monte-Carlo property tests (ctest label: slow; excluded
// from the sanitizer CI job). The fast determinism checks live in
// test_mc.cpp / test_uncertainty.cpp; these push sample counts high
// enough to exercise many pool chunks and to pin statistical properties
// of the substream derivation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/thread_pool.h"
#include "embodied/catalog.h"
#include "embodied/uncertainty.h"
#include "lifecycle/uncertainty.h"
#include "mc/engine.h"

namespace hpcarbon {
namespace {

TEST(McProperties, LargeRunBitIdenticalAcrossManyThreadCounts) {
  const auto model = [](std::size_t, Rng& rng) {
    return rng.uniform() + rng.normal() * rng.exponential(0.5);
  };
  ThreadPool serial(1);
  const auto base =
      mc::Engine({1 << 16, 2024, &serial}).run_samples(model);
  for (std::size_t workers : {2, 3, 8, 16}) {
    ThreadPool pool(workers);
    const auto xs = mc::Engine({1 << 16, 2024, &pool}).run_samples(model);
    EXPECT_EQ(base, xs) << workers << " workers";
  }
}

TEST(McProperties, SubstreamUniformityAndIndependence) {
  // Pooled draws across substreams must look uniform: the old
  // `seed ^ (golden * (i+1))` derivation left low-bit structure across
  // adjacent indices. Mean of U(0,1) over 200k pooled draws has stderr
  // ~6.5e-4; 5 sigma ~ 3.2e-3.
  constexpr int kStreams = 20000;
  constexpr int kPerStream = 10;
  double acc = 0;
  double lag1 = 0;  // correlation proxy between adjacent substreams
  double prev_mean = 0;
  for (int s = 0; s < kStreams; ++s) {
    Rng rng = mc::substream(7, static_cast<std::uint64_t>(s));
    double stream_acc = 0;
    for (int i = 0; i < kPerStream; ++i) stream_acc += rng.uniform();
    const double stream_mean = stream_acc / kPerStream;
    acc += stream_acc;
    if (s > 0) lag1 += (stream_mean - 0.5) * (prev_mean - 0.5);
    prev_mean = stream_mean;
  }
  const double mean = acc / (kStreams * kPerStream);
  EXPECT_NEAR(mean, 0.5, 3.2e-3);
  // Var of a 10-draw stream mean is 1/120; lag-1 covariance of independent
  // streams over 20k pairs has stderr ~ (1/120)/sqrt(20k) ~ 5.9e-5.
  EXPECT_NEAR(lag1 / (kStreams - 1), 0.0, 3e-4);
}

TEST(McProperties, PropagateLargeSampleAcrossPoolsAndStatistics) {
  const auto& part = embodied::processor(embodied::PartId::kA100Pcie40);
  ThreadPool serial(1);
  ThreadPool many(6);
  const auto a = embodied::propagate_distribution(
      part, {}, {1 << 15, 99, &serial});
  const auto b = embodied::propagate_distribution(part, {}, {1 << 15, 99, &many});
  EXPECT_EQ(a.sorted(), b.sorted());
  // With symmetric input bands the sampled mean stays within ~5 stderr of
  // the deterministic value (the 1/yield term adds slight positive skew).
  const double point = embodied::embodied(part).total().to_grams();
  EXPECT_NEAR(a.mean() / point, 1.0, 0.01);
  EXPECT_LT(a.p05(), a.quantile(0.25));
  EXPECT_LT(a.quantile(0.25), a.p50());
  EXPECT_LT(a.p50(), a.quantile(0.75));
  EXPECT_LT(a.quantile(0.75), a.p95());
}

TEST(McProperties, LifecycleDistributionsDeterministicAcrossPools) {
  ThreadPool serial(1);
  ThreadPool many(5);
  lifecycle::UpgradeScenario s;
  s.old_node = hw::v100_node();
  s.new_node = hw::a100_node();
  const lifecycle::GridTrajectory traj(CarbonIntensity::grams_per_kwh(200),
                                       0.03);
  const lifecycle::LifecycleBands bands;
  const auto a = lifecycle::breakeven_distribution(s, traj, 15.0, bands,
                                                   {8192, 31, &serial});
  const auto b = lifecycle::breakeven_distribution(s, traj, 15.0, bands,
                                                   {8192, 31, &many});
  EXPECT_EQ(a.payback_probability, b.payback_probability);
  EXPECT_EQ(a.years.sorted(), b.years.sorted());

  const auto fa = lifecycle::fleet_savings_distribution(
      lifecycle::all_at_once(s, 50), traj, 6.0, bands, {8192, 31, &serial});
  const auto fb = lifecycle::fleet_savings_distribution(
      lifecycle::all_at_once(s, 50), traj, 6.0, bands, {8192, 31, &many});
  EXPECT_EQ(fa.sorted(), fb.sorted());
}

TEST(McProperties, WiderGridBandWidensLifetimeFootprint) {
  const auto node = hw::v100_node();
  lifecycle::LifecycleBands narrow;
  narrow.grid_ci = 0.02;
  lifecycle::LifecycleBands wide;
  wide.grid_ci = 0.30;
  const grid::CarbonIntensityTrace trace(
      "X", kUtc, std::vector<double>(kHoursPerYear, 350.0));
  const auto n = lifecycle::node_lifetime_footprint_distribution(
      node, workload::Suite::kNlp, 0.4, 5.0, trace, HourOfYear(0),
      op::PueModel(1.2), narrow, {8192, 13, nullptr});
  const auto w = lifecycle::node_lifetime_footprint_distribution(
      node, workload::Suite::kNlp, 0.4, 5.0, trace, HourOfYear(0),
      op::PueModel(1.2), wide, {8192, 13, nullptr});
  EXPECT_GT(w.operational.stddev(), n.operational.stddev() * 5.0);
  // Embodied is untouched by the grid band.
  EXPECT_DOUBLE_EQ(w.embodied.mean(), n.embodied.mean());
}

}  // namespace
}  // namespace hpcarbon
