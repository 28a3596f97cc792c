#include "hw/meter.h"

#include "core/error.h"

namespace hpcarbon::hw {

EnergyMeter::EnergyMeter(MeterOptions opts) : opts_(opts) {
  HPC_REQUIRE(opts_.sample_interval.count() > 0,
              "sample interval must be positive");
}

void EnergyMeter::record(Power p, Hours dt) {
  HPC_REQUIRE(dt.count() >= 0, "negative time step");
  const double w = p.to_watts();
  if (has_last_) {
    // Trapezoid between the previous and current sample.
    const double avg_kw = 0.5 * (last_watts_ + w) / 1000.0;
    total_ += Energy::kilowatt_hours(avg_kw * dt.count());
  } else {
    total_ += Energy::kilowatt_hours(w / 1000.0 * dt.count());
  }
  last_watts_ = w;
  has_last_ = true;
  elapsed_ += dt;
  ++samples_;
}

Power EnergyMeter::average_power() const {
  if (elapsed_.count() <= 0) return Power::watts(0);
  return total_ / elapsed_;
}

}  // namespace hpcarbon::hw
