// Carbon-intensity trace: a piecewise-constant year of grid data.
//
// This is the interchange type between the grid simulator (or a real data
// import, grid/import.h) and every consumer: operational-carbon integration
// (Eq. 6), regional statistics (Fig. 6), the hour-of-day winner analysis
// (Fig. 7), and the carbon-aware scheduler.
//
// Resolution: the trace holds one sample per `step_seconds` (default 3600,
// the historical hourly layout) covering exactly the modeled non-leap year.
// Electricity Maps exports ship at 5-minute or 15-minute cadence depending
// on the zone; those import directly at native resolution and every O(1)
// integral below works unchanged (core/series.h carries the prefix sums).
#pragma once

#include <string>
#include <vector>

#include "core/series.h"
#include "core/time.h"
#include "core/units.h"

namespace hpcarbon::grid {

/// Seconds in the modeled (non-leap) year.
inline constexpr double kSecondsPerYear = kHoursPerYear * kSecondsPerHour;

class CarbonIntensityTrace {
 public:
  CarbonIntensityTrace() = default;
  /// values[i] is the carbon intensity (gCO2/kWh) over local seconds
  /// [i*step_seconds, (i+1)*step_seconds). The samples must cover exactly
  /// one year: size * step_seconds == kSecondsPerYear.
  CarbonIntensityTrace(std::string region_code, TimeZone tz,
                       std::vector<double> values,
                       double step_seconds = kSecondsPerHour);

  const std::string& region_code() const { return region_code_; }
  TimeZone time_zone() const { return tz_; }
  std::size_t size() const { return series_.size(); }
  /// Sample cadence in seconds (3600 for hourly, 300 for 5-minute data).
  double step_seconds() const { return series_.step_seconds(); }
  double step_hours() const { return series_.step_hours(); }
  bool hourly() const { return series_.step_seconds() == kSecondsPerHour; }
  const std::vector<double>& values() const { return series_.values(); }

  /// Intensity at the instant the given local hour begins (for hourly
  /// traces: the value of that hour). Use mean_over for hour averages on
  /// sub-hourly data.
  CarbonIntensity at(HourOfYear local_hour) const;
  /// Intensity for an instant given in another zone's local time.
  CarbonIntensity at(HourOfYear hour, TimeZone hour_zone) const;
  /// Intensity at a fractional local hour-of-year (wrapped); resolves to
  /// the native sample containing the instant.
  CarbonIntensity at_hours(double local_hours) const;

  /// Rotated copy whose index i is local time i of `target`: the alignment
  /// step of the paper's Fig. 7 (everything converted to JST). The zone
  /// shift must be a whole number of samples (always true for steps that
  /// divide one hour).
  CarbonIntensityTrace to_time_zone(TimeZone target) const;

  /// Mean intensity over [start, start+duration) in local hours; duration
  /// may wrap the year boundary. Used for trace-integrated Eq. 6.
  /// O(1) via the prefix sums built at construction.
  CarbonIntensity mean_over(HourOfYear start, Hours duration) const;

  /// Integral of intensity over [start_hour, start_hour + duration_hours)
  /// fractional local hours, wrapping the year; units (g/kWh)·h. O(1).
  double interval_sum(double start_hour, double duration_hours) const;

  /// The underlying step series (for consumers that build their own
  /// weighted variants, e.g. the PUE-weighted op::CarbonIntegrator).
  const StepSeries& series() const { return series_; }

  /// Mean-preserving copy at a new cadence (grid/import uses this to move
  /// between 5-minute, 15-minute, and hourly layouts).
  CarbonIntensityTrace resampled(double new_step_seconds) const;

  /// All values observed during a given local hour-of-day, in day order
  /// (365 samples for hourly traces; 365 * samples-per-hour when finer).
  std::vector<double> hour_of_day_slice(int hour_of_day) const;

  /// CSV with "hour,intensity_g_per_kwh" rows (fractional hours when the
  /// trace is sub-hourly); grid::import_trace reads it back bit for bit.
  std::string to_csv() const;

 private:
  std::string region_code_;
  TimeZone tz_;
  StepSeries series_;  // values + prefix sums, built once at construction
};

}  // namespace hpcarbon::grid
