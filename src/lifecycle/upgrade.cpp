#include "lifecycle/upgrade.h"

#include "core/error.h"

namespace hpcarbon::lifecycle {

namespace {
constexpr double kHoursPerYearD = 8760.0;
}

Energy annual_energy_keep(const UpgradeScenario& s) {
  HPC_REQUIRE(s.usage.gpu_usage > 0 && s.usage.gpu_usage <= 1.0,
              "GPU usage must be in (0,1]");
  const Power p = hw::node_training_power(s.old_node, s.suite);
  const Hours busy = Hours::hours(kHoursPerYearD * s.usage.gpu_usage);
  return (p * busy) * s.pue.base();
}

Energy annual_energy_upgrade(const UpgradeScenario& s) {
  const double time_ratio =
      hw::suite_time_ratio(s.suite, s.old_node, s.new_node);
  const Power p = hw::node_training_power(s.new_node, s.suite);
  const Hours busy =
      Hours::hours(kHoursPerYearD * s.usage.gpu_usage * time_ratio);
  return (p * busy) * s.pue.base();
}

Mass upgrade_embodied(const UpgradeScenario& s) {
  return hw::node_embodied(s.new_node, hw::EmbodiedScope::kFullNode);
}

double savings_percent(const UpgradeScenario& s, double years) {
  HPC_REQUIRE(years > 0, "years must be positive");
  const double keep_g =
      (s.intensity * annual_energy_keep(s)).to_grams() * years;
  const double up_g = upgrade_embodied(s).to_grams() +
                      (s.intensity * annual_energy_upgrade(s)).to_grams() *
                          years;
  return 100.0 * (keep_g - up_g) / keep_g;
}

std::vector<double> savings_curve(const UpgradeScenario& s,
                                  const std::vector<double>& years) {
  std::vector<double> out;
  out.reserve(years.size());
  for (double y : years) out.push_back(savings_percent(s, y));
  return out;
}

std::optional<double> breakeven_years(const UpgradeScenario& s) {
  const double keep_rate = (s.intensity * annual_energy_keep(s)).to_grams();
  const double up_rate = (s.intensity * annual_energy_upgrade(s)).to_grams();
  if (up_rate >= keep_rate) return std::nullopt;
  return upgrade_embodied(s).to_grams() / (keep_rate - up_rate);
}

double asymptotic_savings_percent(const UpgradeScenario& s) {
  const double e_old = annual_energy_keep(s).to_kwh();
  const double e_new = annual_energy_upgrade(s).to_kwh();
  return 100.0 * (1.0 - e_new / e_old);
}

}  // namespace hpcarbon::lifecycle
