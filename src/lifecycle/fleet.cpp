#include "lifecycle/fleet.h"

#include <algorithm>

#include "core/error.h"

namespace hpcarbon::lifecycle {

namespace {

void validate(const FleetPlan& plan) {
  HPC_REQUIRE(plan.node_count > 0, "fleet must have nodes");
  double total = 0;
  for (double f : plan.replacement_schedule) {
    HPC_REQUIRE(f >= 0.0 && f <= 1.0, "replacement fraction outside [0,1]");
    total += f;
  }
  HPC_REQUIRE(total <= 1.0 + 1e-9, "replacement schedule exceeds the fleet");
}

}  // namespace

Mass fleet_cumulative_carbon(const FleetPlan& plan, const GridTrajectory& traj,
                             double years) {
  return Mass::grams(fleet_cumulative_grams(
      plan, traj, years, annual_energy_keep(plan.node).to_kwh(),
      annual_energy_upgrade(plan.node).to_kwh(),
      upgrade_embodied(plan.node).to_grams()));
}

double fleet_cumulative_grams(const FleetPlan& plan, const GridTrajectory& traj,
                              double years, double e_old, double e_new,
                              double em_new) {
  validate(plan);
  HPC_REQUIRE(years > 0, "years must be positive");
  const double n = plan.node_count;

  double grams = 0;
  double replaced = 0;
  for (std::size_t k = 0; k < plan.replacement_schedule.size(); ++k) {
    const double f = plan.replacement_schedule[k];
    if (f <= 0) continue;
    const auto swap_time = static_cast<double>(k);
    replaced += f;
    if (swap_time >= years) {
      // Replacement happens after the horizon: this slice runs old gear
      // the whole time and buys nothing yet.
      grams += f * n * e_old * traj.integral(0.0, years);
      continue;
    }
    grams += f * n *
             (e_old * traj.integral(0.0, swap_time) + em_new +
              e_new * traj.integral(swap_time, years));
  }
  grams += (1.0 - replaced) * n * e_old * traj.integral(0.0, years);
  return grams;
}

Mass fleet_keep_carbon(const FleetPlan& plan, const GridTrajectory& traj,
                       double years) {
  validate(plan);
  HPC_REQUIRE(years > 0, "years must be positive");
  const double e_old = annual_energy_keep(plan.node).to_kwh();
  return Mass::grams(plan.node_count * e_old * traj.integral(0.0, years));
}

double fleet_savings_percent(const FleetPlan& plan, const GridTrajectory& traj,
                             double years) {
  const double keep = fleet_keep_carbon(plan, traj, years).to_grams();
  const double up = fleet_cumulative_carbon(plan, traj, years).to_grams();
  return 100.0 * (keep - up) / keep;
}

FleetPlan all_at_once(UpgradeScenario node, int node_count) {
  FleetPlan p;
  p.node = std::move(node);
  p.node_count = node_count;
  p.replacement_schedule = {1.0};
  return p;
}

FleetPlan phased(UpgradeScenario node, int node_count, int phase_years) {
  HPC_REQUIRE(phase_years >= 1, "phase length must be at least one year");
  FleetPlan p;
  p.node = std::move(node);
  p.node_count = node_count;
  p.replacement_schedule.assign(static_cast<std::size_t>(phase_years),
                                1.0 / phase_years);
  return p;
}

}  // namespace hpcarbon::lifecycle
