// Fleet-level upgrade planning.
//
// Real facilities do not flip thousands of nodes overnight; they phase
// replacements across budget years. This module extends the single-node
// RQ 7/8 analysis to an N-node fleet with an arbitrary replacement
// schedule, under a constant or decarbonizing grid, and answers the
// operator's question: all-at-once, phased, or keep?
#pragma once

#include <string>
#include <vector>

#include "lifecycle/scenario.h"
#include "lifecycle/upgrade.h"

namespace hpcarbon::lifecycle {

struct FleetPlan {
  /// Per-node scenario (nodes are homogeneous; the plan scales it).
  UpgradeScenario node;
  int node_count = 100;
  /// replacement_schedule[k] = fraction of the fleet replaced at the start
  /// of year k (k = 0, 1, …). Fractions must be in [0,1] and sum to <= 1;
  /// the remainder is never replaced.
  std::vector<double> replacement_schedule = {1.0};
};

/// Cumulative fleet carbon (embodied of replacements + operation of both
/// generations) over [0, years], under the trajectory.
Mass fleet_cumulative_carbon(const FleetPlan& plan, const GridTrajectory& traj,
                             double years);

/// Schedule-accounting core on precomputed per-node annual energies (kWh)
/// and new-node embodied grams — the seam the Monte-Carlo layer samples
/// through (a grid-CI scale multiplies both energies; embodied is drawn
/// per sample). fleet_cumulative_carbon wraps this with point values.
double fleet_cumulative_grams(const FleetPlan& plan, const GridTrajectory& traj,
                              double years, double e_old_kwh, double e_new_kwh,
                              double em_new_g);

/// Cumulative carbon had the fleet never been upgraded.
Mass fleet_keep_carbon(const FleetPlan& plan, const GridTrajectory& traj,
                       double years);

/// savings% of the plan vs never upgrading, at the horizon.
double fleet_savings_percent(const FleetPlan& plan, const GridTrajectory& traj,
                             double years);

/// Canonical schedules to compare.
FleetPlan all_at_once(UpgradeScenario node, int node_count);
FleetPlan phased(UpgradeScenario node, int node_count, int phase_years);

}  // namespace hpcarbon::lifecycle
