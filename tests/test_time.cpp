#include "core/time.h"

#include <gtest/gtest.h>

namespace hpcarbon {
namespace {

TEST(Time, YearHas8760Hours) {
  EXPECT_EQ(kHoursPerYear, 8760);
  int days = 0;
  for (int m = 0; m < 12; ++m) days += kDaysInMonth[static_cast<size_t>(m)];
  EXPECT_EQ(days, kDaysPerYear);
}

TEST(Time, HourOfYearDecomposition) {
  const HourOfYear h(25);  // Jan 2, 01:00
  EXPECT_EQ(h.hour_of_day(), 1);
  EXPECT_EQ(h.day_of_year(), 1);
  // Dec 31 23:00 is the last hour.
  const HourOfYear last(kHoursPerYear - 1);
  EXPECT_EQ(last.day_of_year(), kDaysPerYear - 1);
  EXPECT_EQ(last.hour_of_day(), 23);
}

TEST(Time, MonthStartHour) {
  EXPECT_EQ(month_start_hour(0), 0);
  EXPECT_EQ(month_start_hour(1), 31 * 24);
  EXPECT_EQ(month_start_hour(11), (365 - 31) * 24);
  EXPECT_THROW(month_start_hour(12), Error);
  EXPECT_THROW(month_start_hour(-1), Error);
}

TEST(Time, ShiftWrapsAroundYear) {
  EXPECT_EQ(HourOfYear(kHoursPerYear - 1).shifted(1).index(), 0);
  EXPECT_EQ(HourOfYear(0).shifted(-1).index(), kHoursPerYear - 1);
  EXPECT_EQ(HourOfYear(0).shifted(-25).index(), kHoursPerYear - 25);
  EXPECT_EQ(HourOfYear(100).shifted(kHoursPerYear).index(), 100);
}

TEST(Time, ConstructorWrapsIndex) {
  EXPECT_EQ(HourOfYear(kHoursPerYear + 5).index(), 5);
  EXPECT_EQ(HourOfYear(-1).index(), kHoursPerYear - 1);
}

TEST(Time, YearFraction) {
  EXPECT_DOUBLE_EQ(year_fraction(HourOfYear(0)), 0.0);
  EXPECT_NEAR(year_fraction(HourOfYear(kHoursPerYear / 2)), 0.5, 1e-9);
}

}  // namespace
}  // namespace hpcarbon
