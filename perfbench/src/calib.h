// Host speed probe. The benchmark shares a host whose speed drifts by a
// quarter or more from one minute to the next, which moves every timing
// alike. A fixed loop of integer, table and branch work, built from no
// hpcarbon code and no seed, is timed before and after each timed stretch,
// and the stretch's times are scaled to the probe's reference time. A host
// that runs the probe 20% slower than the reference has the stretch's
// times scaled down by that share; a change to the program moves them in
// full, since the probe runs none of its code.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe's median time on the 4-vCPU VM the benchmark was tuned on.
/// Scaled times are what that VM would have measured at that speed.
inline constexpr double kProbeReferenceS = 0.75e-3;

/// CPUs this process may run on.
std::vector<int> allowed_cpus();

/// Pins the calling thread to one CPU.
void pin_to(int cpu);

class HostProbe {
 public:
  HostProbe();

  /// Wall time of the fixed loop, median of three timings.
  double seconds();

  /// Mean of seconds() over `cpus`, the calling thread pinned to each in
  /// turn. The thread stays pinned to the last one.
  double seconds_across(const std::vector<int>& cpus);

 private:
  double once();

  std::vector<std::uint32_t> table_;  // 64 KiB of fixed words
};

}  // namespace perfbench
