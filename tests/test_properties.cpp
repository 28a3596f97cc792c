// Property-based tests: parameterized sweeps (TEST_P) asserting model
// invariants across wide input ranges rather than single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "embodied/catalog.h"
#include "embodied/models.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/perf.h"
#include "lifecycle/upgrade.h"
#include "op/operational.h"

namespace hpcarbon {
namespace {

using workload::Suite;

// --- Embodied model properties ---------------------------------------------

class DieAreaSweep : public ::testing::TestWithParam<double> {};

TEST_P(DieAreaSweep, ManufacturingCarbonIsLinearInArea) {
  const double area = GetParam();
  const Mass one = embodied::die_manufacturing_carbon(
      area, embodied::ProcessNode::nm7);
  const Mass twice = embodied::die_manufacturing_carbon(
      2.0 * area, embodied::ProcessNode::nm7);
  EXPECT_NEAR(twice.to_grams(), 2.0 * one.to_grams(), 1e-9 * twice.to_grams());
}

TEST_P(DieAreaSweep, YieldMonotonicity) {
  // Worse yield -> strictly more carbon per good die.
  const double area = GetParam();
  double prev = 0;
  for (double y : {0.95, 0.875, 0.8, 0.7, 0.6}) {
    const double g =
        embodied::die_manufacturing_carbon(area, embodied::ProcessNode::nm7, y)
            .to_grams();
    EXPECT_GT(g, prev);
    prev = g;
  }
}

INSTANTIATE_TEST_SUITE_P(Areas, DieAreaSweep,
                         ::testing::Values(50.0, 100.0, 300.0, 600.0, 826.0,
                                           1448.0));

class CapacitySweep : public ::testing::TestWithParam<double> {};

TEST_P(CapacitySweep, Eq4LinearInCapacity) {
  embodied::MemoryPart m;
  m.name = "sweep";
  m.cls = embodied::PartClass::kSsd;
  m.capacity_gb = GetParam();
  m.epc_g_per_gb = 6.21;
  const double expected = 6.21 * GetParam();
  EXPECT_NEAR(embodied::capacity_manufacturing(m).to_grams(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(64.0, 256.0, 1024.0, 3200.0,
                                           16000.0, 64000.0));

// --- Operational (Eq. 6) properties -----------------------------------------

class Eq6Sweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Eq6Sweep, CarbonBilinearInEnergyAndIntensity) {
  const auto [kwh, ci] = GetParam();
  const Mass base =
      op::operational_carbon(Energy::kilowatt_hours(kwh),
                             CarbonIntensity::grams_per_kwh(ci),
                             op::PueModel(1.0));
  EXPECT_NEAR(base.to_grams(), kwh * ci, 1e-9 * (1.0 + kwh * ci));
  const Mass double_e =
      op::operational_carbon(Energy::kilowatt_hours(2 * kwh),
                             CarbonIntensity::grams_per_kwh(ci),
                             op::PueModel(1.0));
  EXPECT_NEAR(double_e.to_grams(), 2.0 * base.to_grams(),
              1e-9 * (1.0 + double_e.to_grams()));
}

INSTANTIATE_TEST_SUITE_P(
    EnergyIntensityGrid, Eq6Sweep,
    ::testing::Combine(::testing::Values(0.1, 10.0, 1000.0),
                       ::testing::Values(20.0, 200.0, 800.0)));

// --- Perf model properties ---------------------------------------------------

class GpuCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpuCountSweep, SpeedupBoundedByGpuCount) {
  const int k = GetParam();
  for (const auto* m : workload::all_models()) {
    const double t1 = hw::throughput(*m, hw::fig4_node(1));
    const double tk = hw::throughput(*m, hw::fig4_node(k));
    EXPECT_LE(tk, k * t1 * (1.0 + 1e-12)) << m->name;
    EXPECT_GE(tk, t1) << m->name;  // adding GPUs never hurts
  }
}

TEST_P(GpuCountSweep, MarginalGpuValueDiminishes) {
  const int k = GetParam();
  if (k < 2) return;
  for (const auto* m : workload::all_models()) {
    const double per_gpu_k = hw::throughput(*m, hw::fig4_node(k)) / k;
    const double per_gpu_prev =
        hw::throughput(*m, hw::fig4_node(k - 1)) / (k - 1);
    EXPECT_LT(per_gpu_k, per_gpu_prev * (1.0 + 1e-9)) << m->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, GpuCountSweep, ::testing::Values(1, 2, 3, 4,
                                                                  6, 8));

// --- Power model properties --------------------------------------------------

// --- Upgrade model properties -----------------------------------------------

class IntensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(IntensitySweep, SavingsIncreaseWithIntensity) {
  // At any fixed horizon, a dirtier grid always favors the upgrade more.
  const double ci = GetParam();
  lifecycle::UpgradeScenario lo, hi;
  lo.old_node = hi.old_node = hw::p100_node();
  lo.new_node = hi.new_node = hw::a100_node();
  lo.suite = hi.suite = Suite::kVision;
  lo.intensity = CarbonIntensity::grams_per_kwh(ci);
  hi.intensity = CarbonIntensity::grams_per_kwh(ci * 2.0);
  for (double years : {0.5, 1.0, 3.0}) {
    EXPECT_GT(lifecycle::savings_percent(hi, years),
              lifecycle::savings_percent(lo, years))
        << "ci=" << ci << " t=" << years;
  }
}

TEST_P(IntensitySweep, BreakevenInverseInIntensity) {
  const double ci = GetParam();
  lifecycle::UpgradeScenario sc;
  sc.old_node = hw::v100_node();
  sc.new_node = hw::a100_node();
  sc.suite = Suite::kCandle;
  sc.intensity = CarbonIntensity::grams_per_kwh(ci);
  const auto be = lifecycle::breakeven_years(sc);
  ASSERT_TRUE(be.has_value());
  sc.intensity = CarbonIntensity::grams_per_kwh(2.0 * ci);
  const auto be2 = lifecycle::breakeven_years(sc);
  ASSERT_TRUE(be2.has_value());
  EXPECT_NEAR(*be / *be2, 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Intensities, IntensitySweep,
                         ::testing::Values(20.0, 50.0, 100.0, 200.0, 400.0,
                                           800.0));

// --- Grid simulator properties ----------------------------------------------

class RegionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RegionSweep, TraceIsPhysical) {
  const auto spec = grid::all_regions()[static_cast<size_t>(GetParam())];
  const auto trace = grid::GridSimulator(spec).run();
  double lo = 1e18, hi = 0;
  for (double v : trace.values()) {
    EXPECT_TRUE(std::isfinite(v)) << spec.code;
    EXPECT_GE(v, 0.0) << spec.code;
    // No grid hour can be dirtier than pure coal or cleaner than pure wind.
    EXPECT_LE(v, grid::lifecycle_ci(grid::SourceType::kCoal)) << spec.code;
    EXPECT_GE(v, grid::lifecycle_ci(grid::SourceType::kWind)) << spec.code;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi, lo) << spec.code << " trace is constant";
}

TEST_P(RegionSweep, MixFractionsAreValid) {
  const auto spec = grid::all_regions()[static_cast<size_t>(GetParam())];
  const auto mix = grid::GridSimulator(spec).annual_mix();
  double total = 0;
  for (double f : mix) {
    EXPECT_GE(f, 0.0) << spec.code;
    EXPECT_LE(f, 1.0) << spec.code;
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9) << spec.code;
}

INSTANTIATE_TEST_SUITE_P(AllRegions, RegionSweep,
                         ::testing::Range(0, 7));

// --- Table 6 consistency property --------------------------------------------

class SuiteSweep : public ::testing::TestWithParam<Suite> {};

TEST_P(SuiteSweep, UpgradeImprovementsCompose) {
  // For each suite, P->A improvement must exceed both P->V and V->A, and
  // per-model improvements compose multiplicatively.
  const Suite s = GetParam();
  const auto p = hw::p100_node(), v = hw::v100_node(), a = hw::a100_node();
  const double pv = hw::upgrade_improvement_percent(s, p, v);
  const double pa = hw::upgrade_improvement_percent(s, p, a);
  const double va = hw::upgrade_improvement_percent(s, v, a);
  EXPECT_GT(pa, pv);
  EXPECT_GT(pa, va);
  for (const auto& m : workload::models(s)) {
    const double direct = hw::throughput(m, a) / hw::throughput(m, p);
    const double composed = (hw::throughput(m, v) / hw::throughput(m, p)) *
                            (hw::throughput(m, a) / hw::throughput(m, v));
    EXPECT_NEAR(direct, composed, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Suites, SuiteSweep,
                         ::testing::Values(Suite::kNlp, Suite::kVision,
                                           Suite::kCandle));

}  // namespace
}  // namespace hpcarbon
