// Distribution-returning lifecycle analyses: uncertainty end to end.
//
// Benhari et al. and Rao & Chien both show that break-even years and
// upgrade savings flip sign within plausible input bands; the paper's own
// Threats-to-Validity section lists the uncertain inputs (yield, per-area
// emission factors, EPC, grid carbon intensity). The point-estimate APIs
// in footprint.h / upgrade.h / scenario.h / fleet.h answer "what is the
// number"; this module answers "what is the number's distribution":
//
//  * node lifetime footprint   -> embodied/operational/total distributions
//                                 (embodied bands x CI perturbation);
//  * break-even under a        -> distribution of break-even years plus
//    GridTrajectory               P(payback within horizon);
//  * upgrade / fleet savings%  -> confidence intervals on the savings that
//                                 decide all-at-once vs phased vs keep.
//
// Every sample perturbs the part-level embodied inputs (through
// hw::sample_node_embodied) and scales grid carbon intensity within
// bands.grid_ci; both sources propagate jointly so correlated outputs
// (embodied vs total) stay correlated. Sampling runs on mc::Engine:
// deterministic per plan, bit-identical across thread counts.
#pragma once

#include "embodied/uncertainty.h"
#include "grid/trace.h"
#include "lifecycle/fleet.h"
#include "lifecycle/footprint.h"
#include "lifecycle/scenario.h"
#include "lifecycle/upgrade.h"
#include "mc/engine.h"
#include "op/pue.h"
#include "workload/suite.h"

namespace hpcarbon::lifecycle {

/// Uncertain inputs of the lifecycle layer: the part-level embodied bands
/// plus a relative band on grid carbon intensity (trace or trajectory).
struct LifecycleBands {
  embodied::UncertaintyBands embodied;
  /// Grid CI half-width: one multiplicative draw in [1-b, 1+b] per sample
  /// scales the whole trace/trajectory (systematic bias band, not
  /// hour-to-hour noise — the grid simulator already models the latter).
  double grid_ci = 0.10;
};

/// Throws hpcarbon::Error for negative or >= 100% grid bands, and for
/// invalid embodied bands (see embodied::validate).
void validate(const LifecycleBands& bands);

/// Distributions of a TotalFootprint's three components. `total` is the
/// per-sample sum, so it carries the embodied/operational correlation.
struct FootprintDistribution {
  mc::Distribution embodied;
  mc::Distribution operational;
  mc::Distribution total;
};

/// Distribution counterpart of the trace-priced node_lifetime_footprint:
/// embodied bands x CI-trace perturbation.
FootprintDistribution node_lifetime_footprint_distribution(
    const hw::NodeConfig& node, workload::Suite suite, double gpu_usage,
    double years, const grid::CarbonIntensityTrace& trace, HourOfYear start,
    const op::PueModel& pue, const LifecycleBands& bands,
    const mc::SamplePlan& plan = {});

/// Break-even under a decarbonizing grid, as a distribution.
struct BreakevenDistribution {
  /// Break-even years of the samples that do pay back within the horizon
  /// (empty when none do).
  mc::Distribution years;
  /// P(break-even within the horizon): paid-back samples / all samples.
  double payback_probability = 0;
  int samples = 0;
};

/// Distribution counterpart of breakeven_years(scenario, trajectory).
BreakevenDistribution breakeven_distribution(const UpgradeScenario& s,
                                             const GridTrajectory& traj,
                                             double horizon_years,
                                             const LifecycleBands& bands,
                                             const mc::SamplePlan& plan = {});

/// Distribution counterpart of savings_percent(scenario, trajectory, years).
mc::Distribution savings_distribution(const UpgradeScenario& s,
                                      const GridTrajectory& traj, double years,
                                      const LifecycleBands& bands,
                                      const mc::SamplePlan& plan = {});

/// Distribution counterpart of fleet_savings_percent: the savings% CI of a
/// replacement schedule at the horizon.
mc::Distribution fleet_savings_distribution(const FleetPlan& fleet,
                                            const GridTrajectory& traj,
                                            double years,
                                            const LifecycleBands& bands,
                                            const mc::SamplePlan& plan = {});

}  // namespace hpcarbon::lifecycle
