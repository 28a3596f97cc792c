#include "lifecycle/uncertainty.h"

#include <cmath>
#include <limits>

#include "core/error.h"
#include "hw/node.h"

namespace hpcarbon::lifecycle {

namespace {

constexpr double kNoPayback = std::numeric_limits<double>::quiet_NaN();

// One multiplicative grid-CI draw in [1-b, 1+b]. Always drawn *after* the
// node's embodied inputs so the per-sample draw order — and therefore a
// given (seed, sample) result — is fixed across the APIs below.
double grid_scale(Rng& rng, const LifecycleBands& bands) {
  return rng.uniform(1.0 - bands.grid_ci, 1.0 + bands.grid_ci);
}

}  // namespace

void validate(const LifecycleBands& bands) {
  embodied::validate(bands.embodied);
  HPC_REQUIRE(bands.grid_ci >= 0.0 && bands.grid_ci < 1.0,
              "grid CI band must be in [0, 1)");
}

FootprintDistribution node_lifetime_footprint_distribution(
    const hw::NodeConfig& node, workload::Suite suite, double gpu_usage,
    double years, const grid::CarbonIntensityTrace& trace, HourOfYear start,
    const op::PueModel& pue, const LifecycleBands& bands,
    const mc::SamplePlan& plan) {
  validate(bands);
  const double base_operational_g =
      node_lifetime_footprint(node, suite, gpu_usage, years, trace, start, pue)
          .operational.to_grams();
  // Embodied is re-sampled per draw, operational is linear in the CI
  // scale, total is their per-sample sum (correlations preserved).
  auto dists = mc::Engine(plan).run_multi(
      3, [&](std::size_t, Rng& rng, std::span<double> out) {
        const double em =
            hw::sample_node_embodied(node, hw::EmbodiedScope::kFullNode,
                                     bands.embodied, rng)
                .to_grams();
        const double op = base_operational_g * grid_scale(rng, bands);
        out[0] = em;
        out[1] = op;
        out[2] = em + op;
      });
  return {std::move(dists[0]), std::move(dists[1]), std::move(dists[2])};
}

BreakevenDistribution breakeven_distribution(const UpgradeScenario& s,
                                             const GridTrajectory& traj,
                                             double horizon_years,
                                             const LifecycleBands& bands,
                                             const mc::SamplePlan& plan) {
  validate(bands);
  const double e_keep = annual_energy_keep(s).to_kwh();
  const double e_new = annual_energy_upgrade(s).to_kwh();
  const auto raw = mc::Engine(plan).run_samples([&](std::size_t, Rng& rng) {
    const double em =
        hw::sample_node_embodied(s.new_node, hw::EmbodiedScope::kFullNode,
                                 bands.embodied, rng)
            .to_grams();
    // One CI scale multiplies the whole trajectory, i.e. both annual rates.
    const double scale = grid_scale(rng, bands);
    const auto be = breakeven_years(e_keep * scale, e_new * scale, em, traj,
                                    horizon_years);
    return be.value_or(kNoPayback);
  });

  BreakevenDistribution result;
  result.samples = static_cast<int>(raw.size());
  std::vector<double> paid_back;
  paid_back.reserve(raw.size());
  for (double y : raw) {
    if (!std::isnan(y)) paid_back.push_back(y);
  }
  result.payback_probability =
      static_cast<double>(paid_back.size()) / static_cast<double>(raw.size());
  result.years = mc::Distribution(std::move(paid_back));
  return result;
}

mc::Distribution savings_distribution(const UpgradeScenario& s,
                                      const GridTrajectory& traj, double years,
                                      const LifecycleBands& bands,
                                      const mc::SamplePlan& plan) {
  validate(bands);
  HPC_REQUIRE(years > 0, "years must be positive");
  const double e_keep = annual_energy_keep(s).to_kwh();
  const double e_new = annual_energy_upgrade(s).to_kwh();
  const double ci_integral = traj.integral(0.0, years);
  return mc::Engine(plan).run([&](std::size_t, Rng& rng) {
    const double em =
        hw::sample_node_embodied(s.new_node, hw::EmbodiedScope::kFullNode,
                                 bands.embodied, rng)
            .to_grams();
    const double scale = grid_scale(rng, bands);
    const double keep_g = e_keep * scale * ci_integral;
    const double up_g = em + e_new * scale * ci_integral;
    return 100.0 * (keep_g - up_g) / keep_g;
  });
}

mc::Distribution fleet_savings_distribution(const FleetPlan& fleet,
                                            const GridTrajectory& traj,
                                            double years,
                                            const LifecycleBands& bands,
                                            const mc::SamplePlan& plan) {
  validate(bands);
  HPC_REQUIRE(years > 0, "years must be positive");
  const double e_old = annual_energy_keep(fleet.node).to_kwh();
  const double e_new = annual_energy_upgrade(fleet.node).to_kwh();
  return mc::Engine(plan).run([&](std::size_t, Rng& rng) {
    const double em =
        hw::sample_node_embodied(fleet.node.new_node,
                                 hw::EmbodiedScope::kFullNode, bands.embodied,
                                 rng)
            .to_grams();
    const double scale = grid_scale(rng, bands);
    const double keep_g =
        fleet.node_count * e_old * scale * traj.integral(0.0, years);
    const double up_g = fleet_cumulative_grams(fleet, traj, years,
                                               e_old * scale, e_new * scale,
                                               em);
    return 100.0 * (keep_g - up_g) / keep_g;
  });
}

}  // namespace hpcarbon::lifecycle
