// Operational carbon footprint: Eq. 6 of the paper.
//
//   C_op = I_sys * E_op, with E_op = E_IT * PUE.
//
// Two forms are provided: the constant-intensity product (used by the
// upgrade analysis columns of Fig. 8) and an integration against a
// carbon-intensity trace (used by the scheduler). PUE is one constant per
// system, so it factors out of every integral.
#pragma once

#include "core/series.h"
#include "core/time.h"
#include "core/units.h"
#include "grid/trace.h"
#include "op/pue.h"

namespace hpcarbon::op {

/// Eq. 6 with constant carbon intensity. `it_energy` is IT-side energy;
/// PUE scales it to facility draw.
Mass operational_carbon(Energy it_energy, CarbonIntensity intensity,
                        const PueModel& pue = PueModel());

/// Eq. 6 integrated against a trace: constant IT power over
/// [start, start+duration) in the trace's local time, priced through the
/// trace's prefix sums in O(1) and scaled by the constant PUE. Duration may
/// wrap the year.
Mass operational_carbon(Power it_power, const grid::CarbonIntensityTrace& trace,
                        HourOfYear start, Hours duration,
                        const PueModel& pue = PueModel());

/// Average carbon intensity experienced by a constant-power job over the
/// window (the effective I_sys of Eq. 6).
CarbonIntensity effective_intensity(const grid::CarbonIntensityTrace& trace,
                                    HourOfYear start, Hours duration);

/// PUE-weighted cumulative carbon over a trace: prefix sums of
/// intensity(t) * PUE built once at the trace's native resolution
/// (hourly or 5-/15-minute imports alike), then every interval-carbon
/// query is O(1) regardless of duration — fractional endpoints and year
/// wrap included. This is what makes the scheduling engine's per-job
/// carbon pricing constant-time at fractional-hour and tick starts; hold
/// one per (trace, PUE) pair.
class CarbonIntegrator {
 public:
  CarbonIntegrator() = default;
  CarbonIntegrator(const grid::CarbonIntensityTrace& trace,
                   const PueModel& pue);

  /// Integral of intensity * PUE over [start_hour, start_hour + duration)
  /// fractional hours in the trace's local time; units (g/kWh)·h. O(1).
  double weighted_sum(double start_hour, double duration_hours) const;
  /// weighted_sum(hours_of(start), hours_of(duration)) bit for bit, for an
  /// interval on the tick clock (core/time.h): StepSeries::integral_ticks.
  double weighted_sum_ticks(Tick start, Tick duration) const {
    return weighted_.integral_ticks(start, duration);
  }

  /// Grams of CO2 for a constant IT power over the interval. O(1).
  double carbon_g(double it_kw, double start_hour,
                  double duration_hours) const {
    return it_kw * weighted_sum(start_hour, duration_hours);
  }
  Mass carbon(Power it_power, double start_hour, double duration_hours) const {
    return Mass::grams(
        carbon_g(it_power.to_kilowatts(), start_hour, duration_hours));
  }

 private:
  StepSeries weighted_;  // per-sample intensity * PUE, native resolution
};

}  // namespace hpcarbon::op
