#include "hw/meter.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::hw {
namespace {

TEST(Meter, RecordInterfaceAccumulates) {
  EnergyMeter meter;
  meter.record(Power::kilowatts(2.0), Hours::hours(0));
  meter.record(Power::kilowatts(2.0), Hours::hours(1));
  meter.record(Power::kilowatts(4.0), Hours::hours(1));  // trapezoid: 3 kWh
  EXPECT_NEAR(meter.total().to_kwh(), 2.0 + 3.0, 1e-9);
  EXPECT_EQ(meter.samples(), 3u);
  EXPECT_THROW(meter.record(Power::watts(1), Hours::hours(-1)), Error);
}

TEST(Meter, RejectsBadOptions) {
  MeterOptions bad;
  bad.sample_interval = Hours::hours(0);
  EXPECT_THROW(EnergyMeter{bad}, Error);
}

}  // namespace
}  // namespace hpcarbon::hw
