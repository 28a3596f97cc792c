// Hourly grid simulator: RegionSpec -> 8760-hour carbon-intensity trace.
//
// For each local hour the simulator
//   1. evaluates the demand model (diurnal + seasonal + AR(1) noise),
//   2. evaluates each source's available output — weather-driven for wind
//      (lognormal AR(1) weather state, optional diurnal shape) and solar
//      (daylight geometry x season x cloud cover), constant capacity factor
//      for the others,
//   3. dispatches sources in list order up to demand (intermittent output
//      beyond demand is curtailed), topping up with imports,
//   4. emits CI = sum(gen_i * ci_i) / sum(gen_i).
//
// The generator is deterministic for a fixed RegionSpec::seed. run(),
// run_detailed() and annual_mix() are three views of one pass over the
// year, which allocates nothing per hour: the demand and wind diurnal
// shapes are tabled once per hour of day, and the seasonal and solar-day
// terms computed once per day, each the value the hourly expression
// gives, with the weather drawn in the same order. run() keeps only the
// CI column and annual_mix() only the running sums, so neither builds a
// DispatchHour; run_detailed() copies each hour out.
#pragma once

#include <vector>

#include "grid/region.h"
#include "grid/trace.h"

namespace hpcarbon::grid {

/// Per-hour generation snapshot (run_detailed, for tests).
struct DispatchHour {
  double demand = 0;
  double imports = 0;
  std::vector<double> generation;  // parallel to RegionSpec::sources
  double ci_g_per_kwh = 0;
};

class GridSimulator {
 public:
  explicit GridSimulator(RegionSpec spec);

  const RegionSpec& spec() const { return spec_; }

  /// Generate the year-long carbon-intensity trace.
  CarbonIntensityTrace run() const;

  /// The same pass with full dispatch detail, one DispatchHour per hour
  /// (testing). Its CI column is run()'s trace, bit for bit.
  std::vector<DispatchHour> run_detailed() const;

  /// Annual energy share of each source (fractions summing to 1 with
  /// imports included): each source's generation, and the imports,
  /// summed in hour order over the pass and divided by the summed demand,
  /// bit for bit what summing run_detailed() gives.
  std::vector<double> annual_mix() const;

 private:
  RegionSpec spec_;
};

/// Generate traces for several regions in parallel on the global pool.
std::vector<CarbonIntensityTrace> generate_traces(
    const std::vector<RegionSpec>& specs);

}  // namespace hpcarbon::grid
