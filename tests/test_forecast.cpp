#include "grid/forecast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/job.h"

namespace hpcarbon::grid {
namespace {

CarbonIntensityTrace constant_trace(double v) {
  return CarbonIntensityTrace("X", kUtc,
                              std::vector<double>(kHoursPerYear, v));
}

CarbonIntensityTrace square_trace(double lo, double hi) {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<size_t>(i)] = (i % 24) < 12 ? lo : hi;
  }
  return CarbonIntensityTrace("SQ", kUtc, v);
}

TEST(Forecast, PersistencePredictsLastValue) {
  const auto trace = constant_trace(250.0);
  PersistenceForecast f(trace);
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(100), 0), 250.0);
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(100), 24), 250.0);
}

TEST(Forecast, PersistenceIsCausal) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[499] = 400.0;  // spike in the last observed hour
  const CarbonIntensityTrace trace("X", kUtc, v);
  PersistenceForecast f(trace);
  // Origin 500: last observation is hour 499 -> 400, not the future 100.
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(500), 6), 400.0);
}

TEST(Forecast, DiurnalTemplateLearnsSquareWave) {
  const auto trace = square_trace(50.0, 500.0);
  DiurnalTemplateForecast f(trace, 7, 0.0);
  const HourOfYear origin(100 * 24);  // far enough in for a full window
  // Predicting into the clean half vs the dirty half.
  EXPECT_NEAR(f.predict(origin, 2), 50.0, 1e-9);    // hour 2: clean
  EXPECT_NEAR(f.predict(origin, 14), 500.0, 1e-9);  // hour 14: dirty
}

TEST(Forecast, TemplateBeatsPersistenceOnDiurnalGrids) {
  // CISO's duck curve is diurnal: the template must beat persistence at
  // 6-24 hour horizons.
  const auto trace = GridSimulator(ciso()).run();
  PersistenceForecast persistence(trace);
  DiurnalTemplateForecast tmpl(trace);
  for (int horizon : {6, 12, 24}) {
    const auto sp = evaluate(persistence, trace, horizon);
    const auto st = evaluate(tmpl, trace, horizon);
    EXPECT_LT(st.mae, sp.mae) << "horizon " << horizon;
  }
}

TEST(Forecast, SkillDegradesWithHorizonForPersistence) {
  const auto trace = GridSimulator(eso()).run();
  PersistenceForecast f(trace);
  const auto h1 = evaluate(f, trace, 1);
  const auto h12 = evaluate(f, trace, 12);
  EXPECT_LT(h1.mae, h12.mae);
  EXPECT_GT(h1.mae, 0.0);
  EXPECT_GT(h12.mape_percent, h1.mape_percent);
}

TEST(Forecast, WindowAveragesHourPredictions) {
  const auto trace = square_trace(100.0, 300.0);
  DiurnalTemplateForecast f(trace, 7, 0.0);
  const HourOfYear origin(50 * 24);
  // Window [10, 14): hours 10,11 clean (100), hours 12,13 dirty (300).
  EXPECT_NEAR(f.predict_window(origin, 10, 4.0), 200.0, 1e-9);
  EXPECT_THROW(f.predict_window(origin, 0, 0.0), Error);
  EXPECT_THROW(f.outlook(origin).predict_window(0, 0.0), Error);
}

TEST(Forecast, LevelBlendTracksRegimeShift) {
  // A persistent +100 offset on the last day must lift blended predictions.
  std::vector<double> v(kHoursPerYear, 200.0);
  for (int i = 99 * 24; i < 100 * 24; ++i) {
    v[static_cast<size_t>(i)] = 300.0;
  }
  const CarbonIntensityTrace trace("X", kUtc, v);
  DiurnalTemplateForecast blended(trace, 14, 0.5);
  DiurnalTemplateForecast pure(trace, 14, 0.0);
  const HourOfYear origin(100 * 24);
  EXPECT_GT(blended.predict(origin, 3), pure.predict(origin, 3));
}

// DiurnalTemplateForecast::predict as it stood before Outlook existed,
// kept as the oracle, split in two: reference_template builds an origin's
// template and last deviation, and reference_predict reads one horizon
// from them, so the oracle builds the template once per origin rather
// than once per horizon. The code is verbatim except for that split and
// that trace reads come from `observed`, a table of the same
// trace.at(h).to_g_per_kwh() values, which keeps a year of oracle answers
// cheap under the sanitizer builds.
struct ReferenceTemplate {
  std::array<double, kHoursPerDay> tmpl{};
  double last_dev = 0;
};

ReferenceTemplate reference_template(const std::vector<double>& observed,
                                     int window_days, HourOfYear origin) {
  auto at = [&](HourOfYear h) {
    return observed[static_cast<std::size_t>(h.index())];
  };
  std::array<double, kHoursPerDay> sum{};
  std::array<int, kHoursPerDay> count{};
  for (int back = 1; back <= window_days * kHoursPerDay; ++back) {
    const HourOfYear h = origin.shifted(-back);
    sum[static_cast<std::size_t>(h.hour_of_day())] += at(h);
    ++count[static_cast<std::size_t>(h.hour_of_day())];
  }
  ReferenceTemplate ref;
  std::array<double, kHoursPerDay>& tmpl = ref.tmpl;
  for (int i = 0; i < kHoursPerDay; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    tmpl[iu] = count[iu] > 0 ? sum[iu] / count[iu] : 0.0;
  }
  const HourOfYear last = origin.shifted(-1);
  ref.last_dev = at(last) - tmpl[static_cast<std::size_t>(last.hour_of_day())];
  return ref;
}

double reference_predict(const ReferenceTemplate& ref, double level_blend,
                         HourOfYear origin, int horizon_hours) {
  const HourOfYear target = origin.shifted(horizon_hours);
  const double template_value =
      ref.tmpl[static_cast<std::size_t>(target.hour_of_day())];
  return std::max(0.0, template_value + level_blend * ref.last_dev);
}

// Forecast::predict_window's loop as it stood, over precomputed
// reference predictions (ref[h] == reference_predict(..., origin, h)).
double reference_window(const std::vector<double>& ref, int start_h,
                        double duration_h) {
  double acc = 0;
  double remaining = duration_h;
  int h = start_h;
  while (remaining > 0) {
    const double w = remaining >= 1.0 ? 1.0 : remaining;
    acc += ref[static_cast<std::size_t>(h)] * w;
    remaining -= w;
    ++h;
  }
  return acc / duration_h;
}

using Outlook = DiurnalTemplateForecast::Outlook;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The outlook path must answer bit for bit what the per-call oracle does
// at every `stride`-th origin of the year from hour 0, so trailing windows
// wrap from hour 0 back into the year's last days and forecast windows
// from its last hours forward into January: horizons 0-47, and windows
// from one tick (1/1024 h) to 25 h, around the day boundary. Windows past
// the outlook's 48 h running sum (one tick past it, four days, 200 h), and
// predict's per-call entry points (which build an outlook on every call),
// are checked on the origins that are multiples of five; five is prime to
// 24 and to every stride used, so those origins still cover every hour of
// the day. Each window list asks a long window before and after shorter
// ones, so a running sum that a shorter window left stale or partly
// filled cannot pass.
void expect_outlook_matches_oracle(const CarbonIntensityTrace& trace,
                                   int window_days, double blend,
                                   int stride) {
  constexpr int kHorizons = 48;
  constexpr int kLongWindow = 200;
  constexpr int kLongStride = 5;
  constexpr double kTick = 1.0 / 1024;
  const DiurnalTemplateForecast forecast(trace, window_days, blend);
  std::vector<double> observed(kHoursPerYear);
  for (int h = 0; h < kHoursPerYear; ++h) {
    observed[static_cast<std::size_t>(h)] =
        trace.at(HourOfYear(h)).to_g_per_kwh();
  }
  struct Window {
    int start_h;
    double duration_h;
  };
  constexpr double kPastSum = Outlook::kSummedHours + kTick;
  const Window windows[] = {{0, 25.0}, {0, kTick},       {0, 0.25},
                            {0, 1.0},  {0, 5.5},         {0, 24.0},
                            {0, 24 - kTick},             {0, 25.0},
                            {7, 0.25}, {12, 1.0},        {5, 5.5}};
  const Window long_windows[] = {
      {0, kLongWindow}, {0, kPastSum}, {0, 96.0}, {0, kLongWindow}};
  const Window per_call_windows[] = {{0, 0.25}, {0, 1.0}, {5, 5.5}};
  const std::string config = "window " + std::to_string(window_days) +
                             " d, blend " + std::to_string(blend) + ", ";
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;
  auto expect_same = [&](double expected, double got, const char* path,
                         int origin, int start_h, double duration_h) {
    ++checked;
    if (expected == got) return;
    if (mismatches++ == 0) {
      first = config + path + " origin " + std::to_string(origin) +
              " start " + std::to_string(start_h) + " duration " +
              std::to_string(duration_h) + ": " + std::to_string(expected) +
              " vs " + std::to_string(got);
    }
  };
  std::vector<double> ref(kLongWindow);
  for (int o = 0; o < kHoursPerYear; o += stride) {
    const HourOfYear origin(o);
    const bool long_checked = o % kLongStride == 0;
    const ReferenceTemplate tmpl =
        reference_template(observed, window_days, origin);
    for (int h = 0; h < (long_checked ? kLongWindow : kHorizons); ++h) {
      ref[static_cast<std::size_t>(h)] =
          reference_predict(tmpl, blend, origin, h);
    }
    const Outlook outlook = forecast.outlook(origin);
    ASSERT_EQ(outlook.origin(), origin);
    for (int h = 0; h < kHorizons; ++h) {
      expect_same(ref[static_cast<std::size_t>(h)], outlook.predict(h),
                  "outlook predict", o, h, 0);
    }
    auto expect_windows = [&](const auto& list) {
      for (const Window& w : list) {
        expect_same(reference_window(ref, w.start_h, w.duration_h),
                    outlook.predict_window(w.start_h, w.duration_h),
                    "outlook window", o, w.start_h, w.duration_h);
      }
    };
    expect_windows(windows);
    if (!long_checked) continue;
    expect_windows(long_windows);
    for (const int h : {0, 23, 47}) {
      expect_same(ref[static_cast<std::size_t>(h)], forecast.predict(origin, h),
                  "per-call predict", o, h, 0);
    }
    for (const Window& w : per_call_windows) {
      expect_same(reference_window(ref, w.start_h, w.duration_h),
                  forecast.predict_window(origin, w.start_h, w.duration_h),
                  "per-call window", o, w.start_h, w.duration_h);
    }
  }
  const int long_stride = std::lcm(stride, kLongStride);
  const std::size_t origins = (kHoursPerYear + stride - 1) / stride;
  const std::size_t long_origins =
      (kHoursPerYear + long_stride - 1) / long_stride;
  EXPECT_EQ(checked,
            origins * (kHorizons + std::size(windows)) +
                long_origins * (std::size(long_windows) + 3 +
                                std::size(per_call_windows)))
      << config;
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

CarbonIntensityTrace five_minute_trace() {
  auto trace = import_trace_file(
      std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv", "FIX", {});
  EXPECT_EQ(trace.step_seconds(), 300.0);
  return trace;
}

// The default window and blend at every origin of the year.
TEST(ForecastOracle, OutlookMatchesPerCallOnHourlyPreset) {
  expect_outlook_matches_oracle(GridSimulator(ciso()).run(), 14, 0.3, 1);
}

TEST(ForecastOracle, OutlookMatchesPerCallOnFiveMinuteTrace) {
  expect_outlook_matches_oracle(five_minute_trace(), 14, 0.3, 1);
}

// Other windows and blends on every 29th origin: a one-day window (each
// trailing mean is one sample), a week, and 30 days, whose trailing means
// reach back across the year's start for the whole of January.
TEST(ForecastOracle, OtherWindowsAndBlendsMatchPerCall) {
  const CarbonIntensityTrace traces[] = {GridSimulator(ciso()).run(),
                                         five_minute_trace()};
  for (const CarbonIntensityTrace& trace : traces) {
    for (const int window_days : {1, 7, 30}) {
      for (const double blend : {0.0, 0.5}) {
        expect_outlook_matches_oracle(trace, window_days, blend, 29);
      }
    }
  }
}

// A window from the origin shorter than the running sum is one stored
// sum plus one stored hourly prediction times the part hour, divided by
// the duration. The base-class Forecast::predict_window loop, which
// builds an outlook for every hour it adds, must agree bit for bit at
// every origin slot of the day, across the year's end, at durations on
// both sides of whole hours and of the 48 h sum.
TEST(ForecastOracle, OriginWindowsMatchTheBaseClassLoop) {
  const auto trace = GridSimulator(ciso()).run();
  const DiurnalTemplateForecast forecast(trace, 14);
  constexpr double kDurations[] = {0.25, 0.999,  1.0,  1.5,  23.75,
                                   47.0, 47.999, 48.0, 48.5, 96.3};
  const HourOfYear first(kHoursPerYear - 12);
  for (int i = 0; i < kHoursPerDay; ++i) {
    const HourOfYear origin = first.shifted(i);
    const Outlook built = forecast.outlook(origin);
    for (const double d : kDurations) {
      EXPECT_EQ(bits(built.predict_window(0, d)),
                bits(forecast.predict_window(origin, 0, d)))
          << "origin " << origin.index() << ", duration " << d;
    }
  }
}

// A prepared region holds the forecast of its UTC year at the defaults
// (14 days, blend 0.3): at every origin its outlook answers bit for bit
// what a DiurnalTemplateForecast built on its own from trace_utc does.
// CISO's local year is eight hours off UTC, so a forecast of the local
// trace would not pass.
TEST(ForecastOracle, PreparedRegionHoldsItsUtcYearsForecast) {
  const auto local = GridSimulator(ciso()).run();
  const sched::RegionPtr region = sched::prepare_region(local);
  const DiurnalTemplateForecast own(region->trace_utc);
  const DiurnalTemplateForecast of_local(local);
  constexpr double kDurations[] = {0.25, 1.0, 5.5, 24.0, 96.3};
  std::size_t mismatches = 0;
  std::size_t local_differs = 0;
  for (int o = 0; o < kHoursPerYear; ++o) {
    const HourOfYear origin(o);
    const Outlook got = region->forecast.outlook(origin);
    const Outlook want = own.outlook(origin);
    for (int h = 0; h < Outlook::kSummedHours; ++h) {
      if (bits(got.predict(h)) != bits(want.predict(h))) ++mismatches;
    }
    for (const double d : kDurations) {
      if (bits(got.predict_window(0, d)) != bits(want.predict_window(0, d))) {
        ++mismatches;
      }
    }
    if (of_local.outlook(origin).predict(0) != want.predict(0)) {
      ++local_differs;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(local_differs, 0u);
}

TEST(Forecast, Validation) {
  const auto trace = constant_trace(100.0);
  EXPECT_THROW(DiurnalTemplateForecast(trace, 0), Error);
  EXPECT_THROW(DiurnalTemplateForecast(trace, 7, 1.5), Error);
  PersistenceForecast f(trace);
  EXPECT_THROW(evaluate(f, trace, -1), Error);
  EXPECT_THROW(evaluate(f, trace, 1, kHoursPerYear), Error);
}

}  // namespace
}  // namespace hpcarbon::grid
