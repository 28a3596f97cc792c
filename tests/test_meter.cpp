#include "hw/meter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"

namespace hpcarbon::hw {
namespace {

TEST(Meter, ConstantPowerIntegratesExactly) {
  EnergyMeter meter;
  // 1 kW for 2 hours = 2 kWh regardless of sampling.
  const Energy e = meter.integrate(
      [](Hours) { return Power::kilowatts(1.0); }, Hours::hours(2));
  EXPECT_NEAR(e.to_kwh(), 2.0, 1e-9);
  EXPECT_NEAR(meter.average_power().to_kilowatts(), 1.0, 1e-9);
  EXPECT_NEAR(meter.elapsed().count(), 2.0, 1e-9);
}

TEST(Meter, LinearRampTrapezoidIsExact) {
  // P(t) = 1000 * t watts over [0, 1] h -> 0.5 kWh; the trapezoid rule is
  // exact for linear signals.
  EnergyMeter meter;
  const Energy e = meter.integrate(
      [](Hours t) { return Power::watts(1000.0 * t.count()); },
      Hours::hours(1));
  EXPECT_NEAR(e.to_kwh(), 0.5, 1e-9);
}

TEST(Meter, FinerSamplingReducesErrorOnCurvedSignal) {
  auto signal = [](Hours t) {
    return Power::watts(1000.0 * (1.0 + std::sin(6.0 * t.count())));
  };
  MeterOptions coarse;
  coarse.sample_interval = Hours::minutes(30);
  MeterOptions fine;
  fine.sample_interval = Hours::seconds(10);
  EnergyMeter mc(coarse), mf(fine),
      reference(MeterOptions{Hours::seconds(1)});
  const double c = mc.integrate(signal, Hours::hours(4)).to_kwh();
  const double f = mf.integrate(signal, Hours::hours(4)).to_kwh();
  const double r = reference.integrate(signal, Hours::hours(4)).to_kwh();
  EXPECT_LT(std::fabs(f - r), std::fabs(c - r));
}

TEST(Meter, RecordInterfaceAccumulates) {
  EnergyMeter meter;
  meter.record(Power::kilowatts(2.0), Hours::hours(0));
  meter.record(Power::kilowatts(2.0), Hours::hours(1));
  meter.record(Power::kilowatts(4.0), Hours::hours(1));  // trapezoid: 3 kWh
  EXPECT_NEAR(meter.total().to_kwh(), 2.0 + 3.0, 1e-9);
  EXPECT_EQ(meter.samples(), 3u);
  EXPECT_THROW(meter.record(Power::watts(1), Hours::hours(-1)), Error);
}

TEST(Meter, ResetClearsState) {
  EnergyMeter meter;
  meter.integrate([](Hours) { return Power::watts(500); }, Hours::hours(1));
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.total().to_kwh(), 0.0);
  EXPECT_DOUBLE_EQ(meter.elapsed().count(), 0.0);
  EXPECT_EQ(meter.samples(), 0u);
  EXPECT_DOUBLE_EQ(meter.average_power().to_watts(), 0.0);
}

TEST(Meter, RejectsBadOptions) {
  MeterOptions bad;
  bad.sample_interval = Hours::hours(0);
  EXPECT_THROW(EnergyMeter{bad}, Error);
  EnergyMeter ok;
  EXPECT_THROW(
      ok.integrate([](Hours) { return Power::watts(1); }, Hours::hours(0)),
      Error);
}

}  // namespace
}  // namespace hpcarbon::hw
