#include "op/operational.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"

namespace hpcarbon::op {
namespace {

grid::CarbonIntensityTrace constant_trace(double v) {
  return grid::CarbonIntensityTrace(
      "X", kUtc, std::vector<double>(kHoursPerYear, v));
}

TEST(Pue, ConstantModel) {
  EXPECT_DOUBLE_EQ(PueModel(1.35).base(), 1.35);
  EXPECT_DOUBLE_EQ(PueModel().base(), 1.2);  // the library default
}

TEST(Pue, RejectsNonPhysicalValues) {
  EXPECT_THROW(PueModel(0.9), Error);
  EXPECT_NO_THROW(PueModel(1.0));
}

TEST(Operational, Eq6ConstantIntensity) {
  // C_op = I * E * PUE: 300 g/kWh * 10 kWh * 1.2 = 3.6 kg.
  const Mass m = operational_carbon(Energy::kilowatt_hours(10),
                                    CarbonIntensity::grams_per_kwh(300),
                                    PueModel(1.2));
  EXPECT_NEAR(m.to_kilograms(), 3.6, 1e-9);
}

TEST(Operational, Eq6DefaultsAndValidation) {
  const Mass m = operational_carbon(Energy::kilowatt_hours(1),
                                    CarbonIntensity::grams_per_kwh(100));
  EXPECT_NEAR(m.to_grams(), 120.0, 1e-9);  // default PUE 1.2
  EXPECT_THROW(operational_carbon(Energy::kilowatt_hours(-1),
                                  CarbonIntensity::grams_per_kwh(100)),
               Error);
}

TEST(Operational, TraceIntegrationMatchesConstantCase) {
  const auto trace = constant_trace(250.0);
  const Mass m = operational_carbon(Power::kilowatts(2), trace, HourOfYear(0),
                                    Hours::hours(10), PueModel(1.2));
  EXPECT_NEAR(m.to_kilograms(), 2.0 * 10 * 1.2 * 250 / 1000.0, 1e-9);
}

TEST(Operational, TraceIntegrationPricesHourly) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[1] = 500.0;  // expensive second hour
  const grid::CarbonIntensityTrace trace("X", kUtc, v);
  const PueModel pue(1.0);
  const Mass m = operational_carbon(Power::kilowatts(1), trace, HourOfYear(0),
                                    Hours::hours(2), pue);
  EXPECT_NEAR(m.to_grams(), 100.0 + 500.0, 1e-9);
  // Fractional tail hour weighted by its fraction.
  const Mass m15 = operational_carbon(Power::kilowatts(1), trace,
                                      HourOfYear(0), Hours::hours(1.5), pue);
  EXPECT_NEAR(m15.to_grams(), 100.0 + 0.5 * 500.0, 1e-9);
}

TEST(Operational, TraceIntegrationWrapsYear) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[0] = 900.0;
  const grid::CarbonIntensityTrace trace("X", kUtc, v);
  const Mass m = operational_carbon(Power::kilowatts(1), trace,
                                    HourOfYear(kHoursPerYear - 1),
                                    Hours::hours(2), PueModel(1.0));
  EXPECT_NEAR(m.to_grams(), 100.0 + 900.0, 1e-9);
}

TEST(Operational, EffectiveIntensityIsWindowMean) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[0] = 300.0;
  const grid::CarbonIntensityTrace trace("X", kUtc, v);
  EXPECT_NEAR(effective_intensity(trace, HourOfYear(0), Hours::hours(2))
                  .to_g_per_kwh(),
              200.0, 1e-9);
}

TEST(Operational, IntegratorMatchesHourStepping) {
  // The PUE-weighted prefix sums must reproduce the per-hour integration
  // (trace CI x PUE) within 1e-9 relative, fractional starts and year wrap
  // included.
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<std::size_t>(i)] = 100.0 + (i % 31) * 13.0;
  }
  const grid::CarbonIntensityTrace trace("X", kUtc, v);
  const PueModel pue(1.3);
  const CarbonIntegrator integrator(trace, pue);
  const double kw = 2.5;
  for (double start : {0.0, 1234.75, kHoursPerYear - 3.5}) {
    for (double d : {0.25, 7.0, 500.5}) {
      // Reference: step sub-hour intervals exactly as the scheduler's old
      // pricing loop did.
      double expected = 0;
      double remaining = d;
      double cursor = start;
      while (remaining > 1e-12) {
        const double hour_end = std::floor(cursor) + 1.0;
        const double step = std::min(remaining, hour_end - cursor);
        const HourOfYear h(static_cast<int>(std::floor(cursor)) %
                           kHoursPerYear);
        expected += trace.at(h).to_g_per_kwh() * kw * step * pue.base();
        cursor += step;
        remaining -= step;
      }
      EXPECT_NEAR(integrator.carbon_g(kw, start, d), expected,
                  1e-9 * std::max(1.0, expected))
          << "start=" << start << " d=" << d;
      EXPECT_NEAR(integrator.carbon(Power::kilowatts(kw), start, d).to_grams(),
                  integrator.carbon_g(kw, start, d), 1e-12);
    }
  }
}

TEST(Operational, ConstantPueFastPathMatchesIntegrator) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[5] = 700.0;
  const grid::CarbonIntensityTrace trace("X", kUtc, v);
  const PueModel pue(1.2);
  const CarbonIntegrator integrator(trace, pue);
  const Mass direct = operational_carbon(Power::kilowatts(3), trace,
                                         HourOfYear(4), Hours::hours(3), pue);
  EXPECT_NEAR(direct.to_grams(), integrator.carbon_g(3.0, 4.0, 3.0), 1e-9);
  EXPECT_NEAR(direct.to_grams(), 3.0 * 1.2 * (100.0 + 700.0 + 100.0), 1e-9);
}

// The integrator prices a sub-hourly trace at native resolution: a job
// aligned with the clean half of every hour must come out cheaper than the
// hourly mean would say.
TEST(Operational, IntegratorSeesSubHourlyStructure) {
  const std::size_t n = 12u * kHoursPerYear;
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i % 12 < 6) ? 100.0 : 500.0;  // clean first half of each hour
  }
  const grid::CarbonIntensityTrace trace("F", kUtc, v, 300.0);
  const PueModel pue(1.2);
  const CarbonIntegrator integrator(trace, pue);
  // Half an hour starting on the hour: all clean samples.
  EXPECT_NEAR(integrator.carbon_g(1.0, 10.0, 0.5), 1.2 * 100.0 * 0.5, 1e-9);
  // The second half: all dirty.
  EXPECT_NEAR(integrator.carbon_g(1.0, 10.5, 0.5), 1.2 * 500.0 * 0.5, 1e-9);
  // A whole hour averages the two.
  EXPECT_NEAR(integrator.carbon_g(1.0, 10.0, 1.0), 1.2 * 300.0, 1e-9);
  // The free function agrees with the integrator on the same sub-hourly
  // trace (both integrate through prefix sums rather than sampling each
  // hour's first value).
  const Mass direct = operational_carbon(Power::kilowatts(2), trace,
                                         HourOfYear(4000), Hours::hours(30.5),
                                         pue);
  EXPECT_NEAR(direct.to_grams(), integrator.carbon_g(2.0, 4000.0, 30.5),
              1e-9 * direct.to_grams());
}

TEST(Operational, GreenerGridMeansLessCarbonSameEnergy) {
  // Sec. 6: "a system with higher energy efficiency does not necessarily
  // have lower operational carbon" — A at 20 g/kWh beats B at 400 g/kWh
  // even when B uses half the energy.
  const Mass a = operational_carbon(Energy::kilowatt_hours(100),
                                    CarbonIntensity::grams_per_kwh(20));
  const Mass b = operational_carbon(Energy::kilowatt_hours(50),
                                    CarbonIntensity::grams_per_kwh(400));
  EXPECT_LT(a.to_grams(), b.to_grams());
}

}  // namespace
}  // namespace hpcarbon::op
