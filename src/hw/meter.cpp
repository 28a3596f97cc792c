#include "hw/meter.h"

#include <algorithm>

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

Energy EnergyMeter::integrate(const PowerSignal& signal, Hours duration) {
  HPC_REQUIRE(duration.count() > 0, "duration must be positive");
  const double step = opts_.sample_interval.count();
  double t = 0;
  // Prime with the t=0 sample so the first trapezoid is well-formed.
  record(signal(Hours::hours(0)), Hours::hours(0));
  while (t < duration.count()) {
    const double dt = std::min(step, duration.count() - t);
    t += dt;
    record(signal(Hours::hours(t)), Hours::hours(dt));
  }
  return total_;
}

Power EnergyMeter::average_power() const {
  if (elapsed_.count() <= 0) return Power::watts(0);
  return total_ / elapsed_;
}

void EnergyMeter::reset() {
  total_ = Energy();
  elapsed_ = Hours();
  samples_ = 0;
  last_watts_ = 0;
  has_last_ = false;
}

}  // namespace hpcarbon::hw
