#include "core/series.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/time.h"
#include "fleetsim/jobs.h"

namespace hpcarbon {
namespace {

// Brute-force stepping oracle: walk the interval sample by sample,
// wrapping the period, weighting partial samples. Slow and obviously
// correct; every integral property below is asserted against it.
double stepping_oracle(const std::vector<double>& v, double step_hours,
                       double start, double duration) {
  const double period = static_cast<double>(v.size()) * step_hours;
  double pos = std::fmod(start, period);
  if (pos < 0) pos += period;
  auto idx = std::min(v.size() - 1,
                      static_cast<std::size_t>(pos / step_hours));
  // Hours already consumed inside the starting sample.
  double offset = pos - static_cast<double>(idx) * step_hours;
  double acc = 0;
  double remaining = duration;
  while (remaining > 0) {
    const double avail = step_hours - offset;
    if (avail > 0) {
      const double w = std::min(avail, remaining);
      acc += v[idx] * w;
      remaining -= w;
    }
    offset = 0;
    idx = (idx + 1) % v.size();
  }
  return acc;
}

// The exact pre-refactor HourlyPrefixSum algorithm, kept verbatim as the
// golden-parity reference: an hourly StepSeries must reproduce it
// bit-for-bit (same float ops in the same order).
class LegacyHourlyPrefixSum {
 public:
  explicit LegacyHourlyPrefixSum(std::vector<double> hourly_values)
      : hourly_(std::move(hourly_values)) {
    prefix_.resize(hourly_.size() + 1);
    prefix_[0] = 0.0;
    for (std::size_t i = 0; i < hourly_.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + hourly_[i];
    }
  }
  double integral(double start_hour, double duration_hours) const {
    double s = std::fmod(start_hour, static_cast<double>(kHoursPerYear));
    if (s < 0.0) s += kHoursPerYear;
    const double full_years = std::floor(duration_hours / kHoursPerYear);
    const double d = duration_hours - full_years * kHoursPerYear;
    double acc = full_years * prefix_.back();
    const double e = s + d;
    if (e <= kHoursPerYear) {
      acc += cumulative(e) - cumulative(s);
    } else {
      acc += (prefix_.back() - cumulative(s)) + cumulative(e - kHoursPerYear);
    }
    return acc;
  }

 private:
  double cumulative(double hour) const {
    const auto i = static_cast<std::size_t>(hour);
    const double frac = hour - static_cast<double>(i);
    double c = prefix_[i];
    if (frac > 0.0) c += hourly_[i] * frac;
    return c;
  }
  std::vector<double> hourly_;
  std::vector<double> prefix_;
};

// StepSeries' lookups as they were before instants already inside the
// period skipped std::fmod, kept verbatim (prefix sums built the same
// way) as the bitwise oracle for that shortcut.
class AlwaysFmodSeries {
 public:
  explicit AlwaysFmodSeries(const StepSeries& s)
      : values_(s.values()),
        step_hours_(s.step_hours()),
        period_hours_(s.period_hours()) {
    prefix_.resize(values_.size() + 1);
    prefix_[0] = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + values_[i] * step_hours_;
    }
  }
  double total() const { return prefix_.back(); }
  std::size_t index_at_hours(double hours) const {
    double h = std::fmod(hours, period_hours_);
    if (h < 0.0) h += period_hours_;
    auto i = static_cast<std::size_t>(h / step_hours_);
    return i < values_.size() ? i : values_.size() - 1;
  }
  double at_hours(double hours) const {
    return values_[index_at_hours(hours)];
  }
  double integral(double start_hours, double duration_hours) const {
    double s = std::fmod(start_hours, period_hours_);
    if (s < 0.0) s += period_hours_;
    const double full_periods = std::floor(duration_hours / period_hours_);
    const double d = duration_hours - full_periods * period_hours_;
    double acc = full_periods * prefix_.back();
    const double e = s + d;
    if (e <= period_hours_) {
      acc += cumulative(e) - cumulative(s);
    } else {
      acc += (prefix_.back() - cumulative(s)) + cumulative(e - period_hours_);
    }
    return acc;
  }

 private:
  double cumulative(double hours) const {
    const double pos = hours / step_hours_;
    auto i = static_cast<std::size_t>(pos);
    if (i >= values_.size()) return prefix_.back();
    const double frac = pos - static_cast<double>(i);
    double c = prefix_[i];
    if (frac > 0.0) c += values_[i] * frac * step_hours_;
    return c;
  }
  std::vector<double> values_;
  std::vector<double> prefix_;
  double step_hours_;
  double period_hours_;
};

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(5.0, 900.0);
  return v;
}

TEST(StepSeries, ConstructionValidation) {
  EXPECT_THROW(StepSeries({}, 3600.0), Error);
  EXPECT_THROW(StepSeries({1.0}, 0.0), Error);
  EXPECT_THROW(StepSeries({1.0}, -5.0), Error);
  EXPECT_THROW(StepSeries({std::numeric_limits<double>::infinity()}, 60.0),
               Error);
  EXPECT_THROW(StepSeries{}.integral(0.0, 1.0), Error);
  EXPECT_THROW(StepSeries{}.at_hours(0.0), Error);
}

TEST(StepSeries, HourlyLayoutMatchesLegacyConstants) {
  const StepSeries s = StepSeries::hourly(random_values(kHoursPerYear, 1));
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kHoursPerYear));
  EXPECT_EQ(s.step_hours(), 1.0);
  EXPECT_EQ(s.period_hours(), 8760.0);
}

TEST(StepSeries, FiveMinutePeriodIsExact) {
  const std::size_t n = 12u * kHoursPerYear;
  const StepSeries s(std::vector<double>(n, 1.0), 300.0);
  // (105120 * 300) / 3600 is exactly representable arithmetic: the year
  // must come out as exactly 8760 hours or wrap seams would drift.
  EXPECT_EQ(s.period_hours(), 8760.0);
  // total() accumulates 105120 additions of the (inexact) 1/12-hour step;
  // only the period boundary itself must be exact.
  EXPECT_NEAR(s.total(), 8760.0, 1e-7 * 8760.0);
}

// Golden parity: with a 3600 s step every query is the same sequence of
// floating-point operations as the deleted grid::HourlyPrefixSum, so the
// results are bit-identical, not merely close.
TEST(StepSeries, BitIdenticalToLegacyHourlyPrefixSum) {
  const auto v = random_values(kHoursPerYear, 7);
  const LegacyHourlyPrefixSum legacy(v);
  const StepSeries s = StepSeries::hourly(v);
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double start = rng.uniform(-kHoursPerYear, 2.0 * kHoursPerYear);
    const double duration = rng.uniform(0.0, 3.0 * kHoursPerYear);
    const double a = legacy.integral(start, duration);
    const double b = s.integral(start, duration);
    EXPECT_EQ(a, b) << "start=" << start << " duration=" << duration;
  }
}

TEST(StepSeries, EdgeCasesAgainstSteppingOracle) {
  for (const double step_s : {3600.0, 300.0, 900.0}) {
    const auto n = static_cast<std::size_t>(48.0 * 3600.0 / step_s);
    const auto v = random_values(n, 21);
    const StepSeries s(v, step_s);
    const double period = s.period_hours();
    const double sh = s.step_hours();

    // Zero duration, anywhere.
    EXPECT_EQ(s.integral(0.0, 0.0), 0.0);
    EXPECT_EQ(s.integral(17.35, 0.0), 0.0);
    EXPECT_EQ(s.integral(-3.0, 0.0), 0.0);

    // Negative start hours wrap backwards.
    EXPECT_NEAR(s.integral(-1.25, 2.0),
                stepping_oracle(v, sh, -1.25, 2.0), 1e-9);
    EXPECT_NEAR(s.integral(-period - 0.5, 1.0),
                stepping_oracle(v, sh, -0.5, 1.0), 1e-9);

    // Duration longer than one period: whole periods factor out.
    EXPECT_NEAR(s.integral(5.5, 2.0 * period + 3.25),
                2.0 * s.total() + stepping_oracle(v, sh, 5.5, 3.25),
                1e-9 * s.total());

    // Fractional endpoints straddling the wrap seam.
    const double near_end = period - 0.4 * sh;
    EXPECT_NEAR(s.integral(near_end, sh),
                stepping_oracle(v, sh, near_end, sh), 1e-9);

    // Random fractional intervals.
    Rng rng(static_cast<std::uint64_t>(step_s));
    for (int i = 0; i < 300; ++i) {
      const double start = rng.uniform(-period, 2.0 * period);
      const double duration = rng.uniform(0.0, 2.5 * period);
      const double expected = stepping_oracle(v, sh, start, duration);
      EXPECT_NEAR(s.integral(start, duration), expected,
                  1e-9 * std::max(1.0, std::abs(expected)))
          << "step=" << step_s << " start=" << start
          << " duration=" << duration;
    }
  }
}

// In-range instants skip std::fmod, which returns them unchanged; every
// lookup must keep the always-fmod bits, in range, at its edges, and out
// of it.
TEST(StepSeries, InRangeShortcutMatchesAlwaysFmodBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const double step_s : {3600.0, 900.0, 300.0}) {
    const auto n = static_cast<std::size_t>(kHoursPerYear * 3600.0 / step_s);
    const StepSeries s(random_values(n, 29), step_s);
    const AlwaysFmodSeries oracle(s);
    ASSERT_EQ(bits(s.total()), bits(oracle.total()));
    const double period = s.period_hours();
    const double sh = s.step_hours();
    const double below_period = std::nextafter(period, 0.0);
    std::vector<double> instants = {
        0.0, -0.0, sh / 3.0, 3624.0 + 5.0 / 1024.0, period / 2.0,
        below_period, period, -std::numeric_limits<double>::denorm_min(),
        -sh / 2.0, -period, -3.5 * period, 3.0 * period + 0.25,
        7.0 * period - sh / 7.0, std::nextafter(period, 2.0 * period)};
    Rng rng(static_cast<std::uint64_t>(step_s) + 5);
    for (int i = 0; i < 200; ++i) {
      instants.push_back(rng.uniform(0.0, period));
      instants.push_back(rng.uniform(-3.0 * period, 4.0 * period));
    }
    const double durations[] = {0.0,         sh / 4.0, 1.0,
                                24.0 + sh,   period,   period - sh,
                                2.5 * period, below_period};
    for (const double t : instants) {
      EXPECT_EQ(s.index_at_hours(t), oracle.index_at_hours(t))
          << "step=" << step_s << " t=" << t;
      EXPECT_EQ(bits(s.at_hours(t)), bits(oracle.at_hours(t)))
          << "step=" << step_s << " t=" << t;
      for (const double d : durations) {
        EXPECT_EQ(bits(s.integral(t, d)), bits(oracle.integral(t, d)))
            << "step=" << step_s << " t=" << t << " d=" << d;
      }
    }
  }
}

TEST(StepSeries, IntegralValidation) {
  const StepSeries s(std::vector<double>(24, 1.0), 3600.0);
  EXPECT_THROW(s.integral(0.0, -1.0), Error);
  EXPECT_THROW(s.integral(std::numeric_limits<double>::quiet_NaN(), 1.0),
               Error);
  EXPECT_THROW(s.integral(0.0, std::numeric_limits<double>::infinity()),
               Error);
}

// The tick path must give integral()'s bits on every interval the
// fleet engine can price: starts around a sample edge, a day edge and the
// year end (negative and wrapped starts included), durations around one
// sample, one period and whole periods up to fleetsim::kMaxJobTicks, and
// random pairs. Values are signed so that a -0.0 or a cancellation would
// show.
TEST(StepSeries, TickIntegralMatchesIntegralBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // 2-hour, hourly, 30-minute and 15-minute samples take the tick path;
  // 3-hour (3072 ticks) and 5-minute samples (85 1/3 ticks) delegate to
  // integral().
  for (const double step_s :
       {7200.0, 3600.0, 1800.0, 900.0, 10800.0, 300.0}) {
    const auto n = static_cast<std::size_t>(kHoursPerYear * 3600.0 / step_s);
    Rng values_rng(static_cast<std::uint64_t>(step_s) + 11);
    std::vector<double> v(n);
    for (auto& x : v) x = values_rng.uniform(-400.0, 900.0);
    const StepSeries s(std::move(v), step_s);
    const Tick period = Tick{kHoursPerYear} * kTicksPerHour;
    const auto sample =
        static_cast<Tick>(step_s * kTicksPerHour / kSecondsPerHour);

    std::size_t checks = 0;
    std::size_t mismatches = 0;
    const auto check = [&](Tick start, Tick duration) {
      ++checks;
      const double want = s.integral(hours_of(start), hours_of(duration));
      const double got = s.integral_ticks(start, duration);
      if (bits(want) != bits(got) && ++mismatches <= 5) {
        ADD_FAILURE() << "step=" << step_s << " start=" << start
                      << " duration=" << duration << ": " << got
                      << " != integral's " << want;
      }
    };

    const Tick whole = fleetsim::kMaxJobTicks / period * period;
    const Tick durations[] = {0,          1,          255,
                              256,        1023,       1024,
                              1025,       sample - 1, sample,
                              sample + 1, period - 1, period,
                              period + 1, 2 * period, 7 * period + 513,
                              whole,      whole - 1,  fleetsim::kMaxJobTicks};
    const Tick day = 24 * kTicksPerHour;
    for (const Tick edge :
         {Tick{1000} * sample, 200 * day, period, Tick{0}, 3 * period}) {
      for (Tick start = edge - 1100; start <= edge + 1100; ++start) {
        for (const Tick d : durations) check(start, d);
      }
    }
    Rng rng(static_cast<std::uint64_t>(step_s) + 17);
    for (int i = 0; i < 100000; ++i) {
      const Tick start = rng.uniform_int(-3 * period, 3 * period);
      check(start, rng.uniform_int(0, 4 * sample));
      check(start, rng.uniform_int(0, fleetsim::kMaxJobTicks));
    }
    EXPECT_EQ(mismatches, 0u) << "step=" << step_s << " over " << checks;
  }
}

TEST(StepSeries, TickIntegralRejectsNegativeDurations) {
  for (const double step_s : {3600.0, 300.0}) {
    const StepSeries s(std::vector<double>(24 * 3600 / 300, 1.0), step_s);
    try {
      s.integral_ticks(0, -1);
      ADD_FAILURE() << "step=" << step_s << ": a negative duration passed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "interval must have a non-negative duration"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(StepSeries{}.integral_ticks(0, 1), Error);
}

TEST(StepSeries, PointLookup) {
  std::vector<double> v(12);
  std::iota(v.begin(), v.end(), 0.0);
  const StepSeries s(v, 300.0);  // one hour of 5-minute samples
  EXPECT_EQ(s.at_hours(0.0), 0.0);
  EXPECT_EQ(s.at_hours(1.0 / 12.0), 1.0);
  EXPECT_EQ(s.at_hours(11.5 / 12.0), 11.0);
  EXPECT_EQ(s.at_hours(1.0), 0.0);           // wraps
  EXPECT_EQ(s.at_hours(-1.0 / 24.0), 11.0);  // negative wraps backwards
}

TEST(StepSeries, MeanMatchesIntegral) {
  const auto v = random_values(240, 3);
  const StepSeries s(v, 300.0);
  EXPECT_NEAR(s.mean(2.5, 7.0), s.integral(2.5, 7.0) / 7.0, 1e-12);
  EXPECT_THROW(s.mean(0.0, 0.0), Error);
}

TEST(StepSeries, ResampleDownIsMeanPreserving) {
  const auto v = random_values(12 * 48, 17);  // 48 h of 5-minute data
  const StepSeries fine(v, 300.0);
  const StepSeries hourly = fine.resampled(3600.0);
  ASSERT_EQ(hourly.size(), 48u);
  for (std::size_t h = 0; h < hourly.size(); ++h) {
    double acc = 0;
    for (std::size_t k = 0; k < 12; ++k) acc += v[h * 12 + k];
    EXPECT_NEAR(hourly.values()[h], acc / 12.0, 1e-9);
  }
  EXPECT_NEAR(hourly.total(), fine.total(), 1e-7);
}

TEST(StepSeries, ResampleUpReplicates) {
  const StepSeries hourly(std::vector<double>{10.0, 20.0}, 3600.0);
  const StepSeries fine = hourly.resampled(900.0);
  ASSERT_EQ(fine.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(fine.values()[i], 10.0, 1e-12);
    EXPECT_NEAR(fine.values()[4 + i], 20.0, 1e-12);
  }
  EXPECT_NEAR(fine.total(), hourly.total(), 1e-9);
}

TEST(StepSeries, ResampleRejectsUnevenStep) {
  const StepSeries s(std::vector<double>(24, 1.0), 3600.0);
  EXPECT_THROW(s.resampled(7000.0), Error);
  EXPECT_THROW(s.resampled(0.0), Error);
}

TEST(StepSeries, RotationWraps) {
  std::vector<double> v = {0.0, 1.0, 2.0, 3.0};
  const StepSeries s(v, 3600.0);
  EXPECT_EQ(s.rotated(1).values(), (std::vector<double>{1.0, 2.0, 3.0, 0.0}));
  EXPECT_EQ(s.rotated(-1).values(), (std::vector<double>{3.0, 0.0, 1.0, 2.0}));
  EXPECT_EQ(s.rotated(4).values(), v);
  EXPECT_EQ(s.rotated(-9).values(), s.rotated(3).values());
}

}  // namespace
}  // namespace hpcarbon
