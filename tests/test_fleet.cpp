#include "lifecycle/fleet.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::lifecycle {
namespace {

using workload::Suite;

UpgradeScenario v_to_a() {
  UpgradeScenario sc;
  sc.old_node = hw::v100_node();
  sc.new_node = hw::a100_node();
  sc.suite = Suite::kVision;
  return sc;
}

GridTrajectory flat(double ci) {
  return GridTrajectory(CarbonIntensity::grams_per_kwh(ci), 0.0);
}

TEST(Fleet, SingleNodeAllAtOnceMatchesNodeModel) {
  // A 1-node fleet replaced at t=0 must reproduce the per-node savings.
  auto sc = v_to_a();
  sc.intensity = CarbonIntensity::grams_per_kwh(200);
  const auto plan = all_at_once(sc, 1);
  for (double y : {0.5, 1.0, 3.0}) {
    EXPECT_NEAR(fleet_savings_percent(plan, flat(200), y),
                savings_percent(sc, y), 1e-6);
  }
}

TEST(Fleet, CarbonScalesWithNodeCount) {
  const auto p1 = all_at_once(v_to_a(), 1);
  const auto p100 = all_at_once(v_to_a(), 100);
  const auto traj = flat(200);
  EXPECT_NEAR(fleet_cumulative_carbon(p100, traj, 3.0).to_grams(),
              100.0 * fleet_cumulative_carbon(p1, traj, 3.0).to_grams(),
              1e-3);
  EXPECT_NEAR(fleet_keep_carbon(p100, traj, 3.0).to_grams(),
              100.0 * fleet_keep_carbon(p1, traj, 3.0).to_grams(), 1e-3);
}

TEST(Fleet, EmptyScheduleMeansKeep) {
  FleetPlan plan;
  plan.node = v_to_a();
  plan.node_count = 10;
  plan.replacement_schedule = {};
  const auto traj = flat(300);
  EXPECT_NEAR(fleet_cumulative_carbon(plan, traj, 4.0).to_grams(),
              fleet_keep_carbon(plan, traj, 4.0).to_grams(), 1e-6);
  EXPECT_NEAR(fleet_savings_percent(plan, traj, 4.0), 0.0, 1e-9);
}

TEST(Fleet, PhasedSpreadsTheEmbodiedTax) {
  // Before the per-node break-even (~0.45 y for V100->A100 Vision at
  // 200 g/kWh), phased replacement has emitted less than all-at-once; once
  // every tranche is past break-even, all-at-once has banked more
  // operational savings.
  auto sc = v_to_a();
  sc.intensity = CarbonIntensity::grams_per_kwh(200);
  const auto be = breakeven_years(sc);
  ASSERT_TRUE(be.has_value());
  const auto immediate = all_at_once(sc, 100);
  const auto spread = phased(sc, 100, 4);
  const auto traj = flat(200);
  const double y_early = 0.5 * *be;  // safely before break-even
  EXPECT_LT(
      fleet_cumulative_carbon(spread, traj, y_early).to_grams(),
      fleet_cumulative_carbon(immediate, traj, y_early).to_grams());
  const double y_late = 8.0;
  EXPECT_LT(fleet_cumulative_carbon(immediate, traj, y_late).to_grams(),
            fleet_cumulative_carbon(spread, traj, y_late).to_grams());
}

TEST(Fleet, PhasedScheduleSumsToWholeFleet) {
  const auto p = phased(v_to_a(), 100, 5);
  ASSERT_EQ(p.replacement_schedule.size(), 5u);
  double total = 0;
  for (double f : p.replacement_schedule) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Fleet, ReplacementsAfterHorizonBuyNothing) {
  FleetPlan plan;
  plan.node = v_to_a();
  plan.node_count = 10;
  plan.replacement_schedule = {0.0, 0.0, 0.0, 1.0};  // replaced at year 3
  const auto traj = flat(200);
  // Before year 3, identical to keep.
  EXPECT_NEAR(fleet_cumulative_carbon(plan, traj, 2.0).to_grams(),
              fleet_keep_carbon(plan, traj, 2.0).to_grams(), 1e-6);
  // Just after year 3, the embodied tax lands.
  EXPECT_GT(fleet_cumulative_carbon(plan, traj, 3.1).to_grams(),
            fleet_keep_carbon(plan, traj, 3.1).to_grams());
}

TEST(Fleet, MarginalUpgradeOnGreeningGridKeepWins) {
  // On an already-green, rapidly greening grid the upgrade never pays off:
  // keeping beats every replacement schedule at every horizon, and phasing
  // beats the big bang only while the schedule is incomplete — once every
  // tranche has paid its (undiscounted) embodied cost, deferral has merely
  // forfeited operational savings. Insight 8, fleet edition: don't phase a
  // bad upgrade; skip it.
  const GridTrajectory greening(CarbonIntensity::grams_per_kwh(25), 0.20);
  auto sc = v_to_a();
  sc.suite = Suite::kNlp;  // the smallest V100->A100 energy win (Table 6)
  ASSERT_FALSE(breakeven_years(sc, greening).has_value());
  const auto immediate = all_at_once(sc, 100);
  const auto spread = phased(sc, 100, 4);
  FleetPlan keep_plan;
  keep_plan.node = sc;
  keep_plan.node_count = 100;
  keep_plan.replacement_schedule = {};
  for (double y : {1.0, 2.0, 4.0, 8.0}) {
    const double im = fleet_cumulative_carbon(immediate, greening, y).to_grams();
    const double sp = fleet_cumulative_carbon(spread, greening, y).to_grams();
    const double kp = fleet_cumulative_carbon(keep_plan, greening, y).to_grams();
    EXPECT_LT(kp, sp) << y;
    EXPECT_LT(kp, im) << y;
    if (y < 4.0) {
      EXPECT_LT(sp, im) << y;  // embodied not yet fully spent
    } else {
      EXPECT_LE(im, sp) << y;  // deferral has only forfeited savings
    }
  }
}

TEST(Fleet, Validation) {
  FleetPlan plan = all_at_once(v_to_a(), 10);
  plan.node_count = 0;
  EXPECT_THROW(fleet_cumulative_carbon(plan, flat(100), 1.0), Error);
  plan = all_at_once(v_to_a(), 10);
  plan.replacement_schedule = {0.7, 0.7};
  EXPECT_THROW(fleet_cumulative_carbon(plan, flat(100), 1.0), Error);
  plan = all_at_once(v_to_a(), 10);
  plan.replacement_schedule = {-0.1};
  EXPECT_THROW(fleet_keep_carbon(plan, flat(100), 1.0), Error);
  EXPECT_THROW(phased(v_to_a(), 10, 0), Error);
  plan = all_at_once(v_to_a(), 10);
  EXPECT_THROW(fleet_cumulative_carbon(plan, flat(100), 0.0), Error);
}

}  // namespace
}  // namespace hpcarbon::lifecycle
