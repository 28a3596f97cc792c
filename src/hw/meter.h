// Sampling energy meter: the measurement layer of the operational pipeline.
//
// Real deployments read NVML/RAPL counters at a fixed cadence and integrate;
// carbontracker (which the paper uses) does exactly this at ~1 Hz.
// op::Tracker reproduces that pipeline against a simulated power signal,
// sampled every MeterOptions::sample_interval; the EnergyMeter integrates
// the exact (noise-free) samples with the trapezoid rule.
#pragma once

#include <cstddef>
#include <functional>

#include "core/units.h"

namespace hpcarbon::hw {

/// Power as a function of elapsed time.
using PowerSignal = std::function<Power(Hours elapsed)>;

struct MeterOptions {
  Hours sample_interval = Hours::seconds(1.0);
};

class EnergyMeter {
 public:
  explicit EnergyMeter(MeterOptions opts = {});

  /// Push one sample (the live-streaming interface used by the Tracker).
  void record(Power p, Hours dt);

  Energy total() const { return total_; }
  Hours elapsed() const { return elapsed_; }
  Power average_power() const;
  std::size_t samples() const { return samples_; }

 private:
  MeterOptions opts_;
  Energy total_;
  Hours elapsed_;
  std::size_t samples_ = 0;
  double last_watts_ = 0;
  bool has_last_ = false;
};

}  // namespace hpcarbon::hw
