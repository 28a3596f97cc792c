#include "grid/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/series.h"
#include "grid/import.h"
#include "grid/presets.h"

namespace hpcarbon::grid {
namespace {

std::vector<double> ramp_values() {
  std::vector<double> v(kHoursPerYear);
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

TEST(Trace, RequiresFullYear) {
  EXPECT_THROW(CarbonIntensityTrace("X", kUtc, {1.0, 2.0}), Error);
  EXPECT_NO_THROW(CarbonIntensityTrace("X", kUtc, ramp_values()));
}

TEST(Trace, RejectsNegativeOrNonFinite) {
  auto v = ramp_values();
  v[100] = -1.0;
  EXPECT_THROW(CarbonIntensityTrace("X", kUtc, v), Error);
  v[100] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CarbonIntensityTrace("X", kUtc, v), Error);
}

TEST(Trace, AtLocalHour) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  EXPECT_DOUBLE_EQ(t.at(HourOfYear(0)).to_g_per_kwh(), 0.0);
  EXPECT_DOUBLE_EQ(t.at(HourOfYear(4242)).to_g_per_kwh(), 4242.0);
}

TEST(Trace, AtWithZoneConversion) {
  const CarbonIntensityTrace t("JP", kJst, ramp_values());
  // UTC hour 0 == JST hour 9.
  EXPECT_DOUBLE_EQ(t.at(HourOfYear(0), kUtc).to_g_per_kwh(), 9.0);
}

TEST(Trace, ToTimeZonePreservesInstants) {
  const CarbonIntensityTrace pst("CISO", kPst, ramp_values());
  const CarbonIntensityTrace jst = pst.to_time_zone(kJst);
  EXPECT_EQ(jst.time_zone().utc_offset_hours(), 9);
  // Any instant must read the same through either representation.
  for (int h : {0, 17, 100, 8000, kHoursPerYear - 1}) {
    EXPECT_DOUBLE_EQ(jst.at(HourOfYear(h)).to_g_per_kwh(),
                     pst.at(HourOfYear(h), kJst).to_g_per_kwh());
  }
}

TEST(Trace, ToSameZoneIsIdentity) {
  const CarbonIntensityTrace t("X", kGmt, ramp_values());
  const auto u = t.to_time_zone(kGmt);
  EXPECT_EQ(u.values(), t.values());
}

// Reference for the prefix-sum property tests: the hour-stepping integral
// the trace used before prefix sums, fractional endpoints included.
double hour_stepping_sum(const std::vector<double>& v, double start,
                         double duration) {
  double acc = 0;
  double remaining = duration;
  double cursor = start;
  while (remaining > 1e-12) {
    const double hour_end = std::floor(cursor) + 1.0;
    const double step = std::min(remaining, hour_end - cursor);
    const int idx = static_cast<int>(std::floor(cursor)) % kHoursPerYear;
    acc += v[static_cast<std::size_t>(idx)] * step;
    cursor += step;
    remaining -= step;
  }
  return acc;
}

TEST(Trace, IntervalSumMatchesHourSteppingOnRandomIntervals) {
  // Property: O(1) prefix-sum interval carbon == the hour-stepping loop it
  // replaced, within 1e-9 relative, on random fractional intervals
  // including the year-boundary wrap.
  Rng rng(99);
  std::vector<double> v(kHoursPerYear);
  for (auto& x : v) x = rng.uniform(5.0, 900.0);
  const CarbonIntensityTrace t("X", kUtc, v);
  for (int i = 0; i < 500; ++i) {
    const double start = rng.uniform(0.0, kHoursPerYear);
    const double duration = rng.uniform(0.01, 2.0 * kHoursPerYear);
    const double expected = hour_stepping_sum(v, start, duration);
    const double actual = t.interval_sum(start, duration);
    EXPECT_NEAR(actual, expected, 1e-9 * std::max(1.0, std::abs(expected)))
        << "start=" << start << " duration=" << duration;
  }
}

TEST(Trace, IntervalSumWrapsYearBoundary) {
  auto v = ramp_values();  // value i at hour i
  const CarbonIntensityTrace t("X", kUtc, v);
  // Last half of hour 8759 plus first half of hour 0.
  EXPECT_NEAR(t.interval_sum(kHoursPerYear - 0.5, 1.0),
              0.5 * (kHoursPerYear - 1) + 0.5 * 0.0, 1e-9);
  // A full year from any phase equals the annual total.
  const double annual = t.interval_sum(0, kHoursPerYear);
  EXPECT_NEAR(t.interval_sum(1234.25, kHoursPerYear), annual, 1e-6);
  // Negative start hours wrap backwards.
  EXPECT_NEAR(t.interval_sum(-1.0, 1.0), kHoursPerYear - 1.0, 1e-9);
}

TEST(Trace, IntervalSumMultiYearDurations) {
  const CarbonIntensityTrace t("X", kUtc,
                               std::vector<double>(kHoursPerYear, 2.0));
  EXPECT_NEAR(t.interval_sum(100.5, 3.0 * kHoursPerYear + 12.0),
              2.0 * (3.0 * kHoursPerYear + 12.0), 1e-6);
  EXPECT_DOUBLE_EQ(t.interval_sum(42.0, 0.0), 0.0);
}

TEST(Trace, IntervalSumValidation) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  EXPECT_THROW(t.interval_sum(0.0, -1.0), Error);
  EXPECT_THROW(t.interval_sum(std::numeric_limits<double>::quiet_NaN(), 1.0),
               Error);
  // A trace that is not exactly one year is rejected at any cadence.
  EXPECT_THROW(CarbonIntensityTrace("X", kUtc, {1.0, 2.0}, 300.0), Error);
  EXPECT_THROW(StepSeries{}.integral(0.0, 1.0), Error);
}

TEST(Trace, MeanOverAgreesWithIntervalSum) {
  Rng rng(7);
  std::vector<double> v(kHoursPerYear);
  for (auto& x : v) x = rng.uniform(10.0, 600.0);
  const CarbonIntensityTrace t("X", kUtc, v);
  for (int start : {0, 4000, kHoursPerYear - 2}) {
    for (double d : {1.0, 1.5, 26.0, 8760.0}) {
      EXPECT_NEAR(t.mean_over(HourOfYear(start), Hours::hours(d))
                      .to_g_per_kwh(),
                  t.interval_sum(start, d) / d, 1e-9);
    }
  }
}

TEST(Trace, MeanOverWindow) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  // Hours 10,11,12 -> mean 11.
  EXPECT_NEAR(t.mean_over(HourOfYear(10), Hours::hours(3)).to_g_per_kwh(),
              11.0, 1e-9);
  // Fractional duration: 10 full + half of 11 -> (10 + 0.5*11)/1.5.
  EXPECT_NEAR(t.mean_over(HourOfYear(10), Hours::hours(1.5)).to_g_per_kwh(),
              (10.0 + 0.5 * 11.0) / 1.5, 1e-9);
  EXPECT_THROW(t.mean_over(HourOfYear(0), Hours::hours(0)), Error);
}

TEST(Trace, MeanOverWrapsYearBoundary) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  const double expected = (8759.0 + 0.0) / 2.0;
  EXPECT_NEAR(
      t.mean_over(HourOfYear(kHoursPerYear - 1), Hours::hours(2)).to_g_per_kwh(),
      expected, 1e-9);
}

TEST(Trace, HourOfDaySlice) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  const auto slice = t.hour_of_day_slice(5);
  ASSERT_EQ(slice.size(), static_cast<size_t>(kDaysPerYear));
  EXPECT_DOUBLE_EQ(slice[0], 5.0);
  EXPECT_DOUBLE_EQ(slice[1], 29.0);
  EXPECT_THROW(t.hour_of_day_slice(24), Error);
  EXPECT_THROW(t.hour_of_day_slice(-1), Error);
}

TEST(Trace, CsvRoundTrip) {
  const CarbonIntensityTrace t("X", kUtc, ramp_values());
  const auto back = import_trace(t.to_csv(), "X");
  EXPECT_EQ(back.values(), t.values());
}

std::vector<double> random_year(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(samples);
  for (auto& x : v) x = rng.uniform(5.0, 900.0);
  return v;
}

// Property: converting to any zone and back is bit-identical, for every
// preset region's zone and for arbitrary targets — rotation must not touch
// the stored samples, only reorder them.
TEST(TraceProperties, ToTimeZoneThereAndBackIsBitIdentical) {
  int region_index = 0;
  for (const auto& spec : all_regions()) {
    const CarbonIntensityTrace local(
        spec.code, spec.tz,
        random_year(kHoursPerYear, 1000u + static_cast<unsigned>(region_index)));
    for (TimeZone target : {kUtc, kJst, kPst, TimeZone(5, "odd")}) {
      const auto back = local.to_time_zone(target).to_time_zone(spec.tz);
      EXPECT_EQ(back.values(), local.values())
          << spec.code << " via UTC" << target.utc_offset_hours();
      EXPECT_EQ(back.time_zone().utc_offset_hours(),
                spec.tz.utc_offset_hours());
    }
    ++region_index;
  }
}

// Property: at(hour, zone) on the original trace agrees with local at() on
// the rotated trace for every instant — the two spellings of "what was the
// intensity then" can never disagree, for all seven preset regions.
TEST(TraceProperties, CrossZoneLookupAgreesWithRotatedTrace) {
  int region_index = 0;
  for (const auto& spec : all_regions()) {
    const CarbonIntensityTrace local(
        spec.code, spec.tz,
        random_year(kHoursPerYear, 2000u + static_cast<unsigned>(region_index)));
    const auto utc = local.to_time_zone(kUtc);
    for (int h :
         {0, 1, 8, 17, 4999, kHoursPerYear - 1, kHoursPerYear - 9}) {
      const HourOfYear hour(h);
      EXPECT_EQ(local.at(hour, kUtc).to_g_per_kwh(),
                utc.at(hour).to_g_per_kwh())
          << spec.code << " hour " << h;
      // And in the region's own frame.
      EXPECT_EQ(utc.at(hour, spec.tz).to_g_per_kwh(),
                local.at(hour).to_g_per_kwh())
          << spec.code << " hour " << h;
    }
    ++region_index;
  }
}

// A 5-minute trace behaves like its hourly counterpart through the whole
// query surface, with intra-hour structure visible where it should be.
TEST(TraceSubHourly, FiveMinuteQueries) {
  const std::size_t n = 12u * kHoursPerYear;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 100.0 + static_cast<double>(i % 12);  // ramp inside each hour
  }
  const CarbonIntensityTrace t("F", kUtc, v, 300.0);
  EXPECT_EQ(t.size(), n);
  EXPECT_FALSE(t.hourly());

  // at(HourOfYear) reads the sample at the hour's start.
  EXPECT_DOUBLE_EQ(t.at(HourOfYear(7)).to_g_per_kwh(), 100.0);
  // at_hours resolves the 5-minute sample containing the instant.
  EXPECT_DOUBLE_EQ(t.at_hours(7.0 + 25.0 / 60.0).to_g_per_kwh(), 105.0);
  // An hour's mean sees the intra-hour ramp: mean(100..111) = 105.5.
  EXPECT_NEAR(t.mean_over(HourOfYear(7), Hours::hours(1)).to_g_per_kwh(),
              105.5, 1e-9);
  // hour_of_day_slice yields every sub-sample of that local hour.
  const auto slice = t.hour_of_day_slice(5);
  ASSERT_EQ(slice.size(), static_cast<std::size_t>(kDaysPerYear) * 12u);
  EXPECT_DOUBLE_EQ(slice[0], 100.0);
  EXPECT_DOUBLE_EQ(slice[11], 111.0);
}

TEST(TraceSubHourly, TimeZoneRotationAtSampleGranularity) {
  const std::size_t n = 12u * kHoursPerYear;
  const CarbonIntensityTrace jst("KN", kJst, random_year(n, 77), 300.0);
  const auto utc = jst.to_time_zone(kUtc);
  EXPECT_EQ(utc.step_seconds(), 300.0);
  // UTC hour 0 == JST hour 9: the first UTC sample is JST's sample 108.
  EXPECT_EQ(utc.values()[0], jst.values()[9 * 12]);
  const auto back = utc.to_time_zone(kJst);
  EXPECT_EQ(back.values(), jst.values());
}

}  // namespace
}  // namespace hpcarbon::grid
