// End-to-end integration tests: the full paper pipeline — catalog ->
// embodied, grid -> operational, perf/power -> upgrade — wired together the
// way the benches and examples use it.
#include <gtest/gtest.h>

#include "embodied/catalog.h"
#include "embodied/uncertainty.h"
#include "fleetsim/engine.h"
#include "grid/analysis.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/perf.h"
#include "hw/power.h"
#include "lifecycle/footprint.h"
#include "lifecycle/systems.h"
#include "lifecycle/upgrade.h"
#include "op/operational.h"
#include "op/tracker.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

namespace hpcarbon {
namespace {

using workload::Suite;

TEST(Integration, TrainingJobFootprintAcrossRegions) {
  // Same BERT fine-tune on a V100 node, priced in the greenest (ESO) and
  // dirtiest (TK) regions of Table 3: carbon must differ by the intensity
  // ratio while energy stays identical.
  const auto eso = grid::GridSimulator(grid::eso()).run();
  const auto tk = grid::GridSimulator(grid::tokyo()).run();
  const auto node = hw::v100_node();
  const auto& bert = workload::model_by_name("BERT");
  const double samples = hw::throughput(bert, node) * 3600.0 * 24;  // 1 day

  op::Tracker te(eso, HourOfYear(0)), tt(tk, HourOfYear(0));
  const auto re = te.track_training(node, bert, samples);
  const auto rt = tt.track_training(node, bert, samples);
  EXPECT_NEAR(re.it_energy.to_kwh(), rt.it_energy.to_kwh(), 1e-6);
  EXPECT_GT(rt.carbon.to_grams(), re.carbon.to_grams() * 1.5);
}

TEST(Integration, Fig8CellReproducedFromPrimitives) {
  // Rebuild one Fig. 8 data point (P100->A100, CANDLE, medium CI, 1 year)
  // from raw primitives and check it matches the lifecycle API.
  const auto p = hw::p100_node();
  const auto a = hw::a100_node();
  const double ci = 200.0, usage = 0.4, pue = 1.2;

  const double e_keep =
      hw::node_training_power(p, Suite::kCandle).to_kilowatts() * 8760.0 *
      usage * pue;
  const double tr = hw::suite_time_ratio(Suite::kCandle, p, a);
  const double e_new =
      hw::node_training_power(a, Suite::kCandle).to_kilowatts() * 8760.0 *
      usage * tr * pue;
  const double em = hw::node_embodied(a).to_grams();
  const double expected =
      100.0 * (e_keep * ci - (em + e_new * ci)) / (e_keep * ci);

  lifecycle::UpgradeScenario sc;
  sc.old_node = p;
  sc.new_node = a;
  sc.suite = Suite::kCandle;
  sc.intensity = CarbonIntensity::grams_per_kwh(ci);
  EXPECT_NEAR(lifecycle::savings_percent(sc, 1.0), expected, 1e-6);
}

TEST(Integration, SystemLifetimeCarbonIsDominatedByOperationOnDirtyGrids) {
  // A node's multi-year operational carbon on a coal grid dwarfs its
  // embodied carbon; on hydro the embodied term becomes a major factor
  // (Insight 8).
  const auto node = hw::a100_node();
  const auto dirty = lifecycle::node_lifetime_footprint(
      node, Suite::kVision, 0.4, 3.0, CarbonIntensity::grams_per_kwh(700));
  const auto hydro = lifecycle::node_lifetime_footprint(
      node, Suite::kVision, 0.4, 3.0, CarbonIntensity::grams_per_kwh(20));
  EXPECT_LT(dirty.embodied_share(), 0.05);
  EXPECT_GT(hydro.embodied_share(), 0.25);
}

TEST(Integration, SchedulerOverRealTracesConservesWork) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  std::vector<sched::Site> sites;
  for (const auto& t : traces) sites.push_back(sched::make_site(
      t.region_code(), t, 8));
  const fleetsim::FleetEngine sim(sites, HourOfYear(0));
  sched::WorkloadParams wp;
  wp.horizon_hours = 24 * 7;
  wp.seed = 77;
  const fleetsim::FleetJobs fleet_jobs(
      sched::generate_jobs(wp), sched::generated_user_names(wp.user_count));
  // The snapped jobs the engine runs.
  const std::vector<sched::Job>& jobs = fleet_jobs.arrivals();

  double expected_it_kwh = 0;
  for (const auto& j : jobs) {
    expected_it_kwh += j.it_power.to_kilowatts() * j.duration_hours;
  }
  const auto greedy = sched::make_policy("greedy-lowest-ci");
  fleetsim::FleetOutcomes outcomes;
  const auto m = sim.run(fleet_jobs, *greedy, &outcomes);
  EXPECT_EQ(outcomes.size(), jobs.size());
  // Facility energy = IT * PUE + transfers.
  EXPECT_GE(m.total_energy.to_kwh(), expected_it_kwh * 1.2 - 1e-6);
  // Per-job carbon sums to the metric total.
  double sum = 0;
  for (const double g : outcomes.carbon_g) sum += g;
  EXPECT_NEAR(sum, m.total_carbon.to_grams(), 1e-3);
}

TEST(Integration, SystemEmbodiedTotalsAreAtSupercomputerScale) {
  // Tonnes, not kilograms: leadership systems embody thousands of tonnes.
  for (const auto& sys : lifecycle::studied_systems()) {
    const double t = lifecycle::system_embodied(sys).to_tonnes();
    EXPECT_GT(t, 300.0) << sys.name;
    EXPECT_LT(t, 10000.0) << sys.name;
  }
}

TEST(Integration, EnergyEfficiencyAloneDoesNotDetermineCarbon) {
  // Sec. 6: system A (lower FLOPS/W) on hydro beats system B (higher
  // FLOPS/W) on gas. Model: P100 node on 20 g/kWh vs A100 node on 490.
  const auto p = hw::p100_node();
  const auto a = hw::a100_node();
  const auto& m = workload::model_by_name("ResNet50");
  const double samples = 1e7;
  const Mass carbon_p = op::operational_carbon(
      hw::training_energy(p, m, samples), CarbonIntensity::grams_per_kwh(20));
  const Mass carbon_a = op::operational_carbon(
      hw::training_energy(a, m, samples),
      CarbonIntensity::grams_per_kwh(490));
  EXPECT_LT(carbon_p.to_grams(), carbon_a.to_grams());
}

TEST(Integration, TraceCsvSurvivesAnalysisRoundTrip) {
  const auto trace = grid::GridSimulator(grid::ciso()).run();
  grid::ImportOptions opts;
  opts.tz = trace.time_zone();
  const auto back =
      grid::import_trace(trace.to_csv(), trace.region_code(), opts);
  const auto a = grid::summarize(trace);
  const auto b = grid::summarize(back);
  EXPECT_DOUBLE_EQ(a.box.median, b.box.median);
  EXPECT_DOUBLE_EQ(a.cov_percent, b.cov_percent);
}

TEST(Integration, UncertaintyBandsCoverPointEstimatesForAllParts) {
  for (auto id : embodied::table1_parts()) {
    const auto point = embodied::embodied_of(id).total().to_grams();
    embodied::UncertaintyResult r;
    if (embodied::is_processor(id)) {
      r = embodied::propagate(embodied::processor(id),
                              embodied::UncertaintyBands{}, 512, 5);
    } else {
      r = embodied::propagate(embodied::memory(id),
                              embodied::UncertaintyBands{}, 512, 5);
    }
    EXPECT_LT(r.p05.to_grams(), point) << embodied::display_name(id);
    EXPECT_GT(r.p95.to_grams(), point) << embodied::display_name(id);
  }
}

}  // namespace
}  // namespace hpcarbon
