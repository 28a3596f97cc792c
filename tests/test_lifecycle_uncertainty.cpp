#include "lifecycle/uncertainty.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/node.h"

namespace hpcarbon::lifecycle {
namespace {

LifecycleBands zero_bands() {
  LifecycleBands b;
  b.embodied.fab_per_area = 0;
  b.embodied.yield = 0;
  b.embodied.epc = 0;
  b.embodied.packaging = 0;
  b.grid_ci = 0;
  return b;
}

UpgradeScenario v100_to_a100() {
  UpgradeScenario s;
  s.old_node = hw::v100_node();
  s.new_node = hw::a100_node();
  s.suite = workload::Suite::kNlp;
  s.intensity = CarbonIntensity::grams_per_kwh(200);
  return s;
}

TEST(LifecycleBandsValidation, RejectsBadBands) {
  LifecycleBands negative;
  negative.grid_ci = -0.1;
  EXPECT_THROW(validate(negative), Error);
  LifecycleBands too_wide;
  too_wide.grid_ci = 1.0;
  EXPECT_THROW(validate(too_wide), Error);
}

TEST(LifecycleBandsValidation, YieldBandEscapingClampRejectedAtNodeSeam) {
  // The part-aware yield check must also guard the hw::sample_node_embodied
  // path every lifecycle distribution samples through, not just
  // embodied::propagate.
  LifecycleBands wide;
  wide.embodied.yield = 0.40;  // 0.875 +/- 0.40 escapes the [0.5, 1.0] clamp
  Rng rng(1);
  EXPECT_THROW(hw::sample_node_embodied(hw::v100_node(),
                                        hw::EmbodiedScope::kFullNode,
                                        wide.embodied, rng),
               Error);
  const auto s = v100_to_a100();
  const GridTrajectory traj(s.intensity, 0.03);
  EXPECT_THROW(
      breakeven_distribution(s, traj, 15.0, wide, {16, 1, nullptr}), Error);
}

TEST(FootprintDistributionTest, ZeroBandsCollapseToPointEstimate) {
  const auto node = hw::v100_node();
  const grid::CarbonIntensityTrace trace(
      "X", kUtc, std::vector<double>(kHoursPerYear, 300.0));
  const TotalFootprint point =
      node_lifetime_footprint(node, workload::Suite::kNlp, 0.4, 5.0, trace,
                              HourOfYear(0), op::PueModel(1.2));
  const auto d = node_lifetime_footprint_distribution(
      node, workload::Suite::kNlp, 0.4, 5.0, trace, HourOfYear(0),
      op::PueModel(1.2), zero_bands(), {128, 9, nullptr});
  // Per-sample arithmetic mirrors (but does not share) the point-estimate
  // code path, so agreement is to rounding, not bit-exact.
  EXPECT_NEAR(d.embodied.mean() / point.embodied.to_grams(), 1.0, 1e-9);
  EXPECT_NEAR(d.operational.mean() / point.operational.to_grams(), 1.0, 1e-12);
  EXPECT_NEAR(d.total.mean() / point.total().to_grams(), 1.0, 1e-9);
  EXPECT_LT(d.total.stddev(), d.total.mean() * 1e-9);
}

TEST(FootprintDistributionTest, TotalIsPerSampleSumAndTraceOverloadWorks) {
  const auto traces = grid::generate_traces({grid::ciso()});
  const auto d = node_lifetime_footprint_distribution(
      hw::a100_node(), workload::Suite::kNlp, 0.4, 4.0, traces[0],
      HourOfYear(0), op::PueModel(1.2), LifecycleBands{}, {512, 4, nullptr});
  ASSERT_EQ(d.total.samples(), 512);
  // total = embodied + operational holds in the mean (same draws; only
  // summation order separates the two sides).
  EXPECT_NEAR(d.total.mean() / (d.embodied.mean() + d.operational.mean()),
              1.0, 1e-12);
  // And the spread exceeds each component's (independent sources add).
  EXPECT_GE(d.total.stddev(), d.operational.stddev());
  EXPECT_GT(d.operational.mean(), 0.0);
}

TEST(BreakevenDistributionTest, ZeroBandsMatchDeterministicBreakeven) {
  const auto s = v100_to_a100();
  const GridTrajectory traj(s.intensity, 0.03);
  const auto det = breakeven_years(s, traj, 15.0);
  ASSERT_TRUE(det.has_value());
  const auto d = breakeven_distribution(s, traj, 15.0, zero_bands(),
                                        {64, 2, nullptr});
  EXPECT_EQ(d.samples, 64);
  EXPECT_DOUBLE_EQ(d.payback_probability, 1.0);
  EXPECT_NEAR(d.years.p50(), *det, 1e-6);
  EXPECT_NEAR(d.years.stddev(), 0.0, 1e-9);
}

TEST(BreakevenDistributionTest, NeverPayingBackGivesEmptyYears) {
  // Upgrading to an identical node buys no energy savings: embodied can
  // never amortize.
  UpgradeScenario s;
  s.old_node = hw::v100_node();
  s.new_node = hw::v100_node();
  const GridTrajectory traj(CarbonIntensity::grams_per_kwh(200), 0.0);
  const auto d =
      breakeven_distribution(s, traj, 20.0, LifecycleBands{}, {64, 3, nullptr});
  EXPECT_DOUBLE_EQ(d.payback_probability, 0.0);
  EXPECT_TRUE(d.years.empty());
  EXPECT_EQ(d.samples, 64);
}

TEST(SavingsDistributionTest, ZeroBandsMatchScenarioSavings) {
  const auto s = v100_to_a100();
  const GridTrajectory traj(s.intensity, 0.05);
  const double det = savings_percent(s, traj, 4.0);
  const auto d =
      savings_distribution(s, traj, 4.0, zero_bands(), {64, 5, nullptr});
  EXPECT_NEAR(d.mean(), det, 1e-6);
  EXPECT_NEAR(d.stddev(), 0.0, 1e-9);
}

TEST(FleetSavingsDistributionTest, ZeroBandsMatchPointAndSchedulesDiffer) {
  const auto s = v100_to_a100();
  const GridTrajectory traj(s.intensity, 0.03);
  const auto fleet = all_at_once(s, 100);
  const double det = fleet_savings_percent(fleet, traj, 6.0);
  const auto d = fleet_savings_distribution(fleet, traj, 6.0, zero_bands(),
                                            {64, 6, nullptr});
  EXPECT_NEAR(d.mean(), det, 1e-6);

  // Under uncertainty the phased plan still trails all-at-once at a fixed
  // horizon (it defers the operational savings), and the distribution is
  // deterministic for a fixed plan.
  const auto all = fleet_savings_distribution(fleet, traj, 6.0,
                                              LifecycleBands{}, {256, 7, nullptr});
  const auto phased4 = fleet_savings_distribution(
      phased(s, 100, 4), traj, 6.0, LifecycleBands{}, {256, 7, nullptr});
  EXPECT_GT(all.p50(), phased4.p50());
  const auto again = fleet_savings_distribution(
      fleet, traj, 6.0, LifecycleBands{}, {256, 7, nullptr});
  EXPECT_EQ(all.sorted(), again.sorted());
}

TEST(SampleNodeEmbodied, ZeroBandsMatchNodeEmbodied) {
  Rng rng(1);
  const auto node = hw::a100_node();
  const Mass point = hw::node_embodied(node, hw::EmbodiedScope::kFullNode);
  const Mass sampled = hw::sample_node_embodied(
      node, hw::EmbodiedScope::kFullNode, zero_bands().embodied, rng);
  EXPECT_NEAR(sampled.to_grams() / point.to_grams(), 1.0, 1e-9);

  // Compute-only scope excludes DRAM/SSD draws.
  const Mass compute = hw::sample_node_embodied(
      node, hw::EmbodiedScope::kComputeOnly, zero_bands().embodied, rng);
  EXPECT_LT(compute.to_grams(), sampled.to_grams());
}

}  // namespace
}  // namespace hpcarbon::lifecycle
