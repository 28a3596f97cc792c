#include "op/operational.h"

#include <utility>
#include <vector>

#include "core/error.h"

namespace hpcarbon::op {

Mass operational_carbon(Energy it_energy, CarbonIntensity intensity,
                        const PueModel& pue) {
  HPC_REQUIRE(it_energy.to_kwh() >= 0, "negative energy");
  return intensity * (it_energy * pue.base());
}

Mass operational_carbon(Power it_power,
                        const grid::CarbonIntensityTrace& trace,
                        HourOfYear start, Hours duration,
                        const PueModel& pue) {
  HPC_REQUIRE(duration.count() > 0, "duration must be positive");
  // O(1): the trace's prefix sums price the whole interval at once; the
  // constant PUE factors out of the integral.
  return Mass::grams(it_power.to_kilowatts() * pue.base() *
                     trace.interval_sum(start.index(), duration.count()));
}

CarbonIntensity effective_intensity(const grid::CarbonIntensityTrace& trace,
                                    HourOfYear start, Hours duration) {
  return trace.mean_over(start, duration);
}

CarbonIntegrator::CarbonIntegrator(const grid::CarbonIntensityTrace& trace,
                                   const PueModel& pue) {
  std::vector<double> weighted(trace.values());
  for (double& w : weighted) w *= pue.base();
  weighted_ = StepSeries(std::move(weighted), trace.step_seconds());
}

double CarbonIntegrator::weighted_sum(double start_hour,
                                      double duration_hours) const {
  return weighted_.integral(start_hour, duration_hours);
}

}  // namespace hpcarbon::op
