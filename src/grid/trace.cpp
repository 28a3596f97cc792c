#include "grid/trace.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "core/error.h"

namespace hpcarbon::grid {

namespace {

/// Samples per hour when the step divides one hour evenly, else 0.
std::size_t samples_per_hour(double step_seconds) {
  const double n = kSecondsPerHour / step_seconds;
  const auto rounded = static_cast<std::size_t>(std::llround(n));
  if (rounded >= 1 && std::abs(n - static_cast<double>(rounded)) < 1e-9) {
    return rounded;
  }
  return 0;
}

}  // namespace

CarbonIntensityTrace::CarbonIntensityTrace(std::string region_code,
                                           TimeZone tz,
                                           std::vector<double> values,
                                           double step_seconds)
    : region_code_(std::move(region_code)), tz_(tz) {
  HPC_REQUIRE(std::isfinite(step_seconds) && step_seconds > 0.0,
              "trace step must be positive and finite");
  HPC_REQUIRE(static_cast<double>(values.size()) * step_seconds ==
                  kSecondsPerYear,
              "trace must cover exactly one year (size * step == " +
                  std::to_string(kHoursPerYear) + " hours; hourly traces "
                  "need 8760 samples)");
  for (double v : values) {
    HPC_REQUIRE(std::isfinite(v) && v >= 0.0,
                "carbon intensity must be finite and non-negative");
  }
  series_ = StepSeries(std::move(values), step_seconds);
}

CarbonIntensity CarbonIntensityTrace::at(HourOfYear local_hour) const {
  return at_hours(static_cast<double>(local_hour.index()));
}

CarbonIntensity CarbonIntensityTrace::at(HourOfYear hour,
                                         TimeZone hour_zone) const {
  return at(hour.convert(hour_zone, tz_));
}

CarbonIntensity CarbonIntensityTrace::at_hours(double local_hours) const {
  return CarbonIntensity::grams_per_kwh(series_.at_hours(local_hours));
}

CarbonIntensityTrace CarbonIntensityTrace::to_time_zone(TimeZone target) const {
  // Local time i in `target` corresponds to this trace's local time
  // i shifted by (tz_ - target) hours; shift at sample granularity.
  const double shift_seconds =
      (tz_.utc_offset_hours() - target.utc_offset_hours()) * kSecondsPerHour;
  const double steps = shift_seconds / step_seconds();
  const auto whole = static_cast<long>(std::llround(steps));
  HPC_REQUIRE(std::abs(steps - static_cast<double>(whole)) < 1e-9,
              "time-zone shift is not a whole number of trace samples");
  return CarbonIntensityTrace(region_code_, target,
                              series_.rotated(whole).values(),
                              step_seconds());
}

CarbonIntensity CarbonIntensityTrace::mean_over(HourOfYear start,
                                                Hours duration) const {
  const double hours = duration.count();
  HPC_REQUIRE(hours > 0, "duration must be positive");
  return CarbonIntensity::grams_per_kwh(interval_sum(start.index(), hours) /
                                        hours);
}

double CarbonIntensityTrace::interval_sum(double start_hour,
                                          double duration_hours) const {
  return series_.integral(start_hour, duration_hours);
}

CarbonIntensityTrace CarbonIntensityTrace::resampled(
    double new_step_seconds) const {
  if (new_step_seconds == step_seconds()) return *this;
  return CarbonIntensityTrace(region_code_, tz_,
                              series_.resampled(new_step_seconds).values(),
                              new_step_seconds);
}

std::vector<double> CarbonIntensityTrace::hour_of_day_slice(
    int hour_of_day) const {
  HPC_REQUIRE(hour_of_day >= 0 && hour_of_day < kHoursPerDay,
              "hour of day out of range");
  const std::size_t sph = samples_per_hour(step_seconds());
  std::vector<double> slice;
  slice.reserve(kDaysPerYear * (sph > 0 ? sph : 1));
  for (int d = 0; d < kDaysPerYear; ++d) {
    const int hour_start = d * kHoursPerDay + hour_of_day;
    if (sph > 0) {
      const std::size_t base = static_cast<std::size_t>(hour_start) * sph;
      for (std::size_t s = 0; s < sph; ++s) {
        slice.push_back(values()[base + s]);
      }
    } else {
      // Steps coarser than an hour: the sample containing the hour's start.
      slice.push_back(series_.at_hours(hour_start));
    }
  }
  return slice;
}

std::string CarbonIntensityTrace::to_csv() const {
  std::ostringstream out;
  // Full round-trip precision: analyses on an imported trace must match the
  // original bit-for-bit.
  out << std::setprecision(17);
  out << "hour,intensity_g_per_kwh\n";
  const auto& v = values();
  for (std::size_t i = 0; i < v.size(); ++i) {
    out << static_cast<double>(i) * step_hours() << ',' << v[i] << '\n';
  }
  return out.str();
}

}  // namespace hpcarbon::grid
