#include "grid/import.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.h"
#include "grid/presets.h"

#ifndef HPCARBON_TEST_DATA_DIR
#define HPCARBON_TEST_DATA_DIR "tests/data"
#endif

namespace hpcarbon::grid {
namespace {

std::string fixture_path() {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";
}

// One day of hourly rows (tiled to the year by the importer).
std::string hourly_day_csv() {
  std::ostringstream out;
  out << "datetime,carbon_intensity_avg\n";
  for (int h = 0; h < 24; ++h) {
    out << "2021-01-01T" << (h < 10 ? "0" : "") << h << ":00:00Z,"
        << 100.0 + h << "\n";
  }
  return out.str();
}

TEST(Timestamp, IsoVariants) {
  EXPECT_EQ(parse_timestamp_seconds("2021-01-01T00:00:00Z"), 0.0);
  EXPECT_EQ(parse_timestamp_seconds("2021-01-01 00:05"), 300.0);
  EXPECT_EQ(parse_timestamp_seconds("2021-01-02T01:30:00"),
            (24.0 + 1.5) * 3600.0);
  // Zone suffixes are tolerated and ignored (rows are local by contract).
  EXPECT_EQ(parse_timestamp_seconds("2021-06-01T00:00:00+09:00"),
            parse_timestamp_seconds("2021-06-01T00:00:00Z"));
  // The calendar year digits are ignored: any year maps onto the modeled one.
  EXPECT_EQ(parse_timestamp_seconds("1999-03-01T12:00:00Z"),
            parse_timestamp_seconds("2021-03-01T12:00:00Z"));
  // Plain numbers are fractional hours-of-year (the to_csv layout).
  EXPECT_EQ(parse_timestamp_seconds("0"), 0.0);
  EXPECT_EQ(parse_timestamp_seconds("1.5"), 5400.0);
}

TEST(Timestamp, RejectsGarbage) {
  EXPECT_THROW(parse_timestamp_seconds("yesterday"), Error);
  EXPECT_THROW(parse_timestamp_seconds("2021-02-29T00:00:00Z"), Error);  // non-leap
  EXPECT_THROW(parse_timestamp_seconds("2021-13-01T00:00:00Z"), Error);
  EXPECT_THROW(parse_timestamp_seconds("2021-01-01T25:00:00Z"), Error);
  EXPECT_THROW(parse_timestamp_seconds("9999"), Error);  // beyond the year
  EXPECT_THROW(parse_timestamp_seconds("-3"), Error);
}

TEST(Import, HourlyDayTilesToYear) {
  ImportReport report;
  const auto trace = import_trace(hourly_day_csv(), "X", {}, &report);
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(kHoursPerYear));
  EXPECT_EQ(trace.step_seconds(), 3600.0);
  EXPECT_EQ(report.rows, 24u);
  EXPECT_EQ(report.tiled_from, 24u);
  EXPECT_EQ(report.gaps_filled, 0u);
  // Tiling repeats the day: hour 25 == hour 1.
  EXPECT_EQ(trace.values()[25], trace.values()[1]);
  EXPECT_EQ(trace.values()[1], 101.0);
}

TEST(Import, ForwardFillsGapsAndReportsThem) {
  // Drop hours 3-4 and blank hour 7's value: three filled samples in two
  // gap runs, all inheriting the previous sample's value.
  std::ostringstream out;
  out << "datetime,carbon_intensity_avg\n";
  for (int h = 0; h < 24; ++h) {
    if (h == 3 || h == 4) continue;
    out << "2021-01-01T" << (h < 10 ? "0" : "") << h << ":00:00Z,";
    if (h != 7) out << 100.0 + h;
    out << "\n";
  }
  ImportReport report;
  const auto trace = import_trace(out.str(), "X", {}, &report);
  EXPECT_EQ(report.gaps_filled, 3u);
  EXPECT_EQ(report.gap_events, 2u);
  EXPECT_EQ(report.longest_gap, 2u);
  EXPECT_EQ(trace.values()[3], 102.0);
  EXPECT_EQ(trace.values()[4], 102.0);
  EXPECT_EQ(trace.values()[7], 106.0);
}

TEST(Import, GapCapRefusesLongHoles) {
  std::ostringstream out;
  out << "datetime,carbon_intensity_avg\n";
  for (int h = 0; h < 24; ++h) {
    if (h >= 10 && h < 14) continue;  // 4-sample hole
    out << "2021-01-01T" << (h < 10 ? "0" : "") << h << ":00:00Z,"
        << 100.0 + h << "\n";
  }
  ImportOptions opts;
  opts.max_gap_samples = 3;
  EXPECT_THROW(import_trace(out.str(), "X", opts), Error);
  opts.max_gap_samples = 4;
  EXPECT_NO_THROW(import_trace(out.str(), "X", opts));
}

TEST(Import, RejectsDuplicateAndOffGridTimestamps) {
  EXPECT_THROW(
      import_trace("datetime,ci\n"
                   "2021-01-01T00:00:00Z,100\n"
                   "2021-01-01T00:00:00Z,101\n",
                   "X"),
      Error);
  EXPECT_THROW(
      import_trace("datetime,ci\n"
                   "2021-01-01T00:00:00Z,100\n"
                   "2021-01-01T01:00:00Z,101\n"
                   "2021-01-01T02:07:00Z,102\n",  // off the hourly grid
                   "X"),
      Error);
}

TEST(Import, NoTileRequiresFullYear) {
  ImportOptions opts;
  opts.tile_to_year = false;
  EXPECT_THROW(import_trace(hourly_day_csv(), "X", opts), Error);
}

TEST(Import, RejectsNegativeIntensityAndEmptyFiles) {
  EXPECT_THROW(import_trace("datetime,ci\n2021-01-01T00:00:00Z,-5\n", "X"),
               Error);
  EXPECT_THROW(import_trace("", "X"), Error);
  EXPECT_THROW(import_trace("datetime,ci\n", "X"), Error);
  // Rows exist but every intensity cell is blank: nothing to fill from.
  EXPECT_THROW(import_trace("datetime,ci\n"
                            "2021-01-01T00:00:00Z,\n"
                            "2021-01-01T01:00:00Z,\n",
                            "X"),
               Error);
}

TEST(Import, RoundTripsCanonicalTraceCsv) {
  // to_csv -> import must reproduce the trace exactly: numeric hour
  // timestamps, named header columns, full-year coverage.
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<std::size_t>(i)] = 100.0 + 50.0 * std::sin(i * 0.01);
  }
  const CarbonIntensityTrace original("RT", kPst, v);
  ImportOptions opts;
  opts.tz = kPst;
  ImportReport report;
  const auto imported =
      import_trace(original.to_csv(), "RT", opts, &report);
  EXPECT_EQ(report.tiled_from, 0u);
  EXPECT_EQ(report.gaps_filled, 0u);
  ASSERT_EQ(imported.size(), original.size());
  EXPECT_EQ(imported.values(), original.values());
  EXPECT_EQ(imported.time_zone().utc_offset_hours(), -8);
}

TEST(Import, FixtureFiveMinuteFile) {
  ImportReport report;
  const auto trace = import_trace_file(fixture_path(), "FIX", {}, &report);
  EXPECT_EQ(trace.step_seconds(), 300.0);
  EXPECT_EQ(trace.size(), 12u * kHoursPerYear);
  EXPECT_EQ(report.rows, 572u);
  EXPECT_EQ(report.tiled_from, 576u);  // two days of 5-minute samples
  EXPECT_EQ(report.gap_events, 3u);
  EXPECT_EQ(report.gaps_filled, 5u);
  EXPECT_EQ(report.longest_gap, 3u);

  // Resampling to hourly preserves the annual mean to float accuracy and
  // every hourly cell equals the mean of its twelve 5-minute samples.
  const auto hourly = trace.resampled(3600.0);
  EXPECT_EQ(hourly.size(), static_cast<std::size_t>(kHoursPerYear));
  EXPECT_NEAR(hourly.interval_sum(0, kHoursPerYear),
              trace.interval_sum(0, kHoursPerYear),
              1e-6 * trace.interval_sum(0, kHoursPerYear));
  for (std::size_t h : {0u, 13u, 8759u}) {
    double acc = 0;
    for (std::size_t k = 0; k < 12; ++k) acc += trace.values()[h * 12 + k];
    EXPECT_NEAR(hourly.values()[h], acc / 12.0, 1e-9);
  }
}

TEST(Import, RegionLookupResolvesPresetZones) {
  ASSERT_TRUE(find_region("KN").has_value());
  EXPECT_EQ(find_region("KN")->tz.utc_offset_hours(), 9);
  EXPECT_EQ(find_region("ESO")->tz.utc_offset_hours(), 0);
  EXPECT_EQ(find_region("CISO")->tz.utc_offset_hours(), -8);
  EXPECT_FALSE(find_region("NOPE").has_value());
}

// A download truncated mid-day must not tile: the replicated period would
// drift the diurnal cycle out of phase across the year.
TEST(Import, TilingRejectsPartialDays) {
  std::ostringstream out;
  out << "datetime,carbon_intensity_avg\n";
  for (int h = 0; h < 21; ++h) {  // last 3 hours of the day missing
    out << "2021-01-01T" << (h < 10 ? "0" : "") << h << ":00:00Z,"
        << 100.0 + h << "\n";
  }
  EXPECT_THROW(import_trace(out.str(), "X"), Error);
  // Whole days are fine at any cadence (two days of hourly).
  std::ostringstream two_days;
  two_days << "datetime,carbon_intensity_avg\n";
  for (int h = 0; h < 48; ++h) {
    two_days << "2021-01-0" << (h / 24 + 1) << "T" << (h % 24 < 10 ? "0" : "")
             << h % 24 << ":00:00Z," << 100.0 + h << "\n";
  }
  EXPECT_NO_THROW(import_trace(two_days.str(), "X"));
}

// The year grid is sized from the cadence, so the floor is checked before
// anything is allocated: rows 2^-10 s apart would ask for 32.3G samples
// (258 GB), and half a second apart for 504 MB.
TEST(Import, RefusesCadenceBelowTheFloor) {
  for (const char* second : {"00:00:00.0009765625Z", "00:00:00.5Z",
                             "00:00:30Z"}) {
    const std::string csv = std::string("datetime,carbon_intensity\n") +
                            "2021-01-01T00:00:00Z,100\n" + "2021-01-01T" +
                            second + ",120\n";
    std::string error;
    try {
      import_trace(csv, "X");
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("trace CSV cadence must be at least 60 s"),
              std::string::npos)
        << second << ": " << error;
  }
  // A forced cadence meets the same floor; the floor itself is accepted.
  ImportOptions forced;
  forced.step_seconds = 30;
  EXPECT_THROW(import_trace(hourly_day_csv(), "X", forced), Error);
  std::ostringstream minutes;
  minutes << "datetime,carbon_intensity\n";
  for (int m = 0; m < 24 * 60; ++m) {
    minutes << "2021-01-01T" << (m / 60 < 10 ? "0" : "") << m / 60 << ":"
            << (m % 60 < 10 ? "0" : "") << m % 60 << ":00Z," << 100 + m % 7
            << "\n";
  }
  EXPECT_EQ(import_trace(minutes.str(), "X").step_seconds(),
            kMinImportStepSeconds);
}

// A file path reaches the importer from clients (serve's trace_csv), so the
// read is bounded: it stops one byte past kMaxImportBytes, whether the file
// is merely large or never ends.
TEST(Import, FileReadStopsPastTheByteCap) {
  const std::string big =
      (std::filesystem::temp_directory_path() /
       ("hpcarbon_test_import_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(big, std::ios::binary);
    out << std::string(kMaxImportBytes + 1, '0');
  }
  for (const std::string& path : {big, std::string("/dev/zero")}) {
    std::string error;
    try {
      import_trace_file(path, "X");
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("is larger than 16777216 bytes"), std::string::npos)
        << path << ": " << error;
  }
  std::filesystem::remove(big);
}

}  // namespace
}  // namespace hpcarbon::grid
