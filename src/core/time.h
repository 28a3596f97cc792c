// Simulated calendar used by the hourly carbon-intensity analysis.
//
// The paper analyses one calendar year (2021) of hourly data: 365 days,
// 8760 hours, no leap handling (matching the Electricity Maps exports it
// consumed). We model an hour-of-year index [0, 8760) in some time zone and
// the fixed UTC offsets Fig. 7 re-aligns by (everything is re-aligned to
// JST, UTC+9, before the hour-of-day winner analysis; see
// grid::CarbonIntensityTrace::to_time_zone).
#pragma once

#include <array>
#include <cstdint>

#include "core/error.h"

namespace hpcarbon {

inline constexpr int kHoursPerDay = 24;
inline constexpr int kDaysPerYear = 365;
inline constexpr int kHoursPerYear = kHoursPerDay * kDaysPerYear;  // 8760

/// The tick clock: simulated time in ticks of 1/1024 hour (under 4 s).
/// The rate is a power of two, so any tick count below 2^53 converts to
/// an exact double number of hours, and sums and differences of tick
/// times are exact floating-point arithmetic. fleetsim runs its event
/// loop on ticks; StepSeries::integral_ticks prices intervals from them.
using Tick = std::int64_t;
inline constexpr Tick kTicksPerHour = 1024;

/// Exact: any tick count below 2^53 divides by the power-of-two tick rate
/// without rounding.
inline double hours_of(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kTicksPerHour);
}

/// Fixed UTC offset, in whole hours (the operators studied span UTC+9 to
/// UTC-8; none uses fractional offsets). DST is deliberately not modeled:
/// grid data feeds publish in standard local time or UTC.
class TimeZone {
 public:
  constexpr TimeZone() = default;
  constexpr explicit TimeZone(int utc_offset_hours, const char* name = "")
      : offset_(utc_offset_hours), name_(name) {}

  constexpr int utc_offset_hours() const { return offset_; }
  constexpr const char* name() const { return name_; }

  friend constexpr bool operator==(TimeZone a, TimeZone b) {
    return a.offset_ == b.offset_;
  }

 private:
  int offset_ = 0;
  const char* name_ = "UTC";
};

inline constexpr TimeZone kUtc{0, "UTC"};
inline constexpr TimeZone kJst{9, "JST"};    // Japan (KN, TK)
inline constexpr TimeZone kGmt{0, "GMT"};    // Great Britain (ESO)
inline constexpr TimeZone kPst{-8, "PST"};   // California (CISO)
inline constexpr TimeZone kEst{-5, "EST"};   // Mid-Atlantic (PJM)
inline constexpr TimeZone kCst{-6, "CST"};   // Texas / Midwest (ERCOT, MISO)

/// Hour-of-year in a given time zone; the workhorse index of the grid module.
class HourOfYear {
 public:
  constexpr HourOfYear() = default;
  constexpr explicit HourOfYear(int index) : index_(wrap(index)) {}

  constexpr int index() const { return index_; }
  constexpr int hour_of_day() const { return index_ % kHoursPerDay; }
  constexpr int day_of_year() const { return index_ / kHoursPerDay; }

  /// Shift by whole hours with year wraparound (hour 8759 + 1 -> hour 0).
  constexpr HourOfYear shifted(int hours) const {
    return HourOfYear(index_ + hours);
  }

  friend constexpr bool operator==(HourOfYear a, HourOfYear b) {
    return a.index_ == b.index_;
  }
  friend constexpr auto operator<=>(HourOfYear a, HourOfYear b) {
    return a.index_ <=> b.index_;
  }

 private:
  static constexpr int wrap(int i) {
    int m = i % kHoursPerYear;
    return m < 0 ? m + kHoursPerYear : m;
  }
  int index_ = 0;
};

/// Days in each month of the modeled (non-leap) year.
inline constexpr std::array<int, 12> kDaysInMonth = {31, 28, 31, 30, 31, 30,
                                                     31, 31, 30, 31, 30, 31};

/// First hour-of-year of a month (month in [0,11]).
int month_start_hour(int month);

/// Fraction of the year elapsed at a given hour, in [0,1); used by the
/// seasonal terms of the grid simulator.
constexpr double year_fraction(HourOfYear h) {
  return static_cast<double>(h.index()) / kHoursPerYear;
}

}  // namespace hpcarbon
