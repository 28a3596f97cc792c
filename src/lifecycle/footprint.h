// Total carbon footprint: Eq. 1 of the paper, C_total = C_em + C_op,
// with convenience constructors for the common "component + workload +
// region + lifetime" question practitioners ask.
#pragma once

#include <string>

#include "core/units.h"
#include "grid/trace.h"
#include "hw/node.h"
#include "op/pue.h"
#include "workload/suite.h"

namespace hpcarbon::lifecycle {

struct TotalFootprint {
  Mass embodied;
  Mass operational;
  Mass total() const { return embodied + operational; }
  /// Fraction of lifetime carbon that was emitted before first boot.
  double embodied_share() const {
    const double t = total().to_grams();
    return t > 0 ? embodied.to_grams() / t : 0.0;
  }
  std::string to_string() const;
};

/// Lifetime footprint of a node: full-node embodied plus `years` of
/// suite-average operation at `gpu_usage` duty cycle under a constant
/// carbon intensity (busy-energy model; see lifecycle/upgrade.h).
TotalFootprint node_lifetime_footprint(const hw::NodeConfig& node,
                                       workload::Suite suite,
                                       double gpu_usage, double years,
                                       CarbonIntensity intensity,
                                       const op::PueModel& pue = op::PueModel());

/// Same, but priced against an hourly carbon-intensity trace starting at
/// `start` (captures the temporal variation of Sec. 4).
TotalFootprint node_lifetime_footprint(const hw::NodeConfig& node,
                                       workload::Suite suite,
                                       double gpu_usage, double years,
                                       const grid::CarbonIntensityTrace& trace,
                                       HourOfYear start = HourOfYear(0),
                                       const op::PueModel& pue = op::PueModel());

}  // namespace hpcarbon::lifecycle
