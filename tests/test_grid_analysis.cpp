#include "grid/analysis.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/error.h"
#include "grid/presets.h"
#include "grid/simulator.h"

namespace hpcarbon::grid {
namespace {

CarbonIntensityTrace constant_trace(const std::string& code, TimeZone tz,
                                    double value) {
  return CarbonIntensityTrace(code, tz,
                              std::vector<double>(kHoursPerYear, value));
}

TEST(Analysis, SummaryOfConstantTrace) {
  const auto s = summarize(constant_trace("X", kUtc, 100.0));
  EXPECT_DOUBLE_EQ(s.box.median, 100.0);
  EXPECT_DOUBLE_EQ(s.box.q1, 100.0);
  EXPECT_DOUBLE_EQ(s.cov_percent, 0.0);
  EXPECT_EQ(s.code, "X");
}

TEST(Analysis, WinnerCountsSumTo365PerHour) {
  const auto traces = generate_traces(fig7_regions());
  const auto w = hourly_lowest_ci(traces, kJst);
  ASSERT_EQ(w.counts.size(), 3u);
  for (int h = 0; h < kHoursPerDay; ++h) {
    int total = 0;
    for (const auto& region : w.counts) {
      total += region[static_cast<size_t>(h)];
    }
    EXPECT_EQ(total, kDaysPerYear) << "hour " << h;
  }
}

TEST(Analysis, ConstantLowerTraceWinsEverywhere) {
  std::vector<CarbonIntensityTrace> traces = {
      constant_trace("LOW", kUtc, 50.0), constant_trace("HIGH", kUtc, 300.0)};
  const auto w = hourly_lowest_ci(traces, kUtc);
  for (int h = 0; h < kHoursPerDay; ++h) {
    EXPECT_EQ(w.counts[0][static_cast<size_t>(h)], kDaysPerYear);
    EXPECT_EQ(w.counts[1][static_cast<size_t>(h)], 0);
  }
}

TEST(Analysis, RequiresTwoRegions) {
  std::vector<CarbonIntensityTrace> one = {constant_trace("A", kUtc, 1.0)};
  EXPECT_THROW(hourly_lowest_ci(one, kUtc), Error);
}

TEST(Analysis, NoSingleRegionWinsEveryHourOfEveryDay) {
  // Insight 7: "no region is a consistent winner for all hours of the day
  //  for all days in a year".
  const auto traces = generate_traces(fig7_regions());
  const auto w = hourly_lowest_ci(traces, kJst);
  for (const auto& region : w.counts) {
    const int total = std::accumulate(region.begin(), region.end(), 0);
    EXPECT_LT(total, kDaysPerYear * kHoursPerDay);
    EXPECT_GT(total, 0);  // and everyone wins somewhere
  }
}

TEST(Analysis, EsoDominatesMidJstHours) {
  // RQ 6: ESO is the most frequent winner during JST hours ~8-20 (UK
  // night/morning, low demand + wind).
  const auto traces = generate_traces(fig7_regions());
  const auto w = hourly_lowest_ci(traces, kJst);
  const auto& eso = w.counts[0];
  const auto& ciso = w.counts[1];
  for (int h = 10; h <= 20; ++h) {
    EXPECT_GT(eso[static_cast<size_t>(h)], 182) << "hour " << h;  // > half
  }
  // And CISO takes the early-JST hours (California midday solar).
  int ciso_early = 0, eso_early = 0;
  for (int h = 2; h <= 7; ++h) {
    ciso_early += ciso[static_cast<size_t>(h)];
    eso_early += eso[static_cast<size_t>(h)];
  }
  EXPECT_GT(ciso_early, eso_early);
}

TEST(Analysis, DiurnalProfileOfCisoDipsMidday) {
  const auto trace = GridSimulator(ciso()).run();
  const auto prof = diurnal_profile(trace);
  // Local noon intensity well below local evening peak (duck curve).
  EXPECT_LT(prof[12], prof[19] * 0.7);
}

TEST(Analysis, DiurnalProfileAveragesCorrectly) {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<size_t>(i)] = (i % 24 == 3) ? 10.0 : 1.0;
  }
  const auto prof = diurnal_profile(CarbonIntensityTrace("X", kUtc, v));
  EXPECT_DOUBLE_EQ(prof[3], 10.0);
  EXPECT_DOUBLE_EQ(prof[4], 1.0);
}

TEST(Analysis, SummarizeManyPreservesOrder) {
  const auto traces = generate_traces(fig7_regions());
  const auto sums = summarize(traces);
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_EQ(sums[0].code, "ESO");
  EXPECT_EQ(sums[2].code, "ERCOT");
}

}  // namespace
}  // namespace hpcarbon::grid
