// carbontracker-equivalent: follow a running job and report its energy and
// operational carbon.
//
// The paper measures C_op with the carbontracker tool (Anthony et al.):
// sample device power at a fixed cadence, integrate to energy, multiply by
// the system's constant PUE and the grid's carbon intensity at the time of
// consumption. Tracker reproduces that pipeline against the simulated node
// power model and a grid trace; the meter reads the modeled power exactly.
#pragma once

#include <string>

#include "core/units.h"
#include "grid/trace.h"
#include "hw/meter.h"
#include "hw/node.h"
#include "hw/power.h"
#include "op/pue.h"

namespace hpcarbon::op {

struct TrackerReport {
  std::string job_name;
  Hours duration;
  Energy it_energy;        // integrated IT-side energy
  Energy facility_energy;  // after PUE
  Mass carbon;             // Eq. 6, trace-integrated
  CarbonIntensity average_intensity;
  Power average_power;

  std::string to_string() const;
};

struct TrackerOptions {
  Hours sample_interval = Hours::seconds(1.0);
  PueModel pue = PueModel();
};

class Tracker {
 public:
  Tracker(const grid::CarbonIntensityTrace& trace, HourOfYear start,
          TrackerOptions opts = {});

  /// Track an arbitrary power signal for `duration`.
  TrackerReport track(const std::string& job_name,
                      const hw::PowerSignal& signal, Hours duration);

  /// Track a training run of `m` on `node` processing `samples` samples
  /// (constant training power, duration from the perf model).
  TrackerReport track_training(const hw::NodeConfig& node,
                               const workload::BenchmarkModel& m,
                               double samples, int gpus_used = 0);

 private:
  const grid::CarbonIntensityTrace* trace_;
  HourOfYear start_;
  TrackerOptions opts_;
};

}  // namespace hpcarbon::op
