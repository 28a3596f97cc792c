#include "lifecycle/footprint.h"

#include <sstream>

#include "core/error.h"
#include "hw/power.h"
#include "op/operational.h"

namespace hpcarbon::lifecycle {

namespace {
constexpr double kHoursPerYearD = 8760.0;
}

std::string TotalFootprint::to_string() const {
  std::ostringstream out;
  out << "embodied " << hpcarbon::to_string(embodied) << " + operational "
      << hpcarbon::to_string(operational) << " = "
      << hpcarbon::to_string(total()) << " ("
      << static_cast<int>(embodied_share() * 100.0 + 0.5) << "% embodied)";
  return out.str();
}

TotalFootprint node_lifetime_footprint(const hw::NodeConfig& node,
                                       workload::Suite suite,
                                       double gpu_usage, double years,
                                       CarbonIntensity intensity,
                                       const op::PueModel& pue) {
  HPC_REQUIRE(years > 0, "years must be positive");
  HPC_REQUIRE(gpu_usage >= 0 && gpu_usage <= 1.0, "usage must be in [0,1]");
  TotalFootprint f;
  f.embodied = hw::node_embodied(node, hw::EmbodiedScope::kFullNode);
  const Power p = hw::node_training_power(node, suite);
  const Energy it =
      p * Hours::hours(kHoursPerYearD * years * gpu_usage);
  f.operational = op::operational_carbon(it, intensity, pue);
  return f;
}

TotalFootprint node_lifetime_footprint(const hw::NodeConfig& node,
                                       workload::Suite suite,
                                       double gpu_usage, double years,
                                       const grid::CarbonIntensityTrace& trace,
                                       HourOfYear start,
                                       const op::PueModel& pue) {
  HPC_REQUIRE(years > 0, "years must be positive");
  TotalFootprint f;
  f.embodied = hw::node_embodied(node, hw::EmbodiedScope::kFullNode);
  // Average busy power over the node's allocation, priced hourly.
  const Power avg = hw::node_training_power(node, suite) * gpu_usage;
  f.operational = op::operational_carbon(
      avg, trace, start, Hours::years(years), pue);
  return f;
}

}  // namespace hpcarbon::lifecycle
