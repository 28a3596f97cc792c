// Region explorer: inspect any Table 3 grid region — annual statistics,
// energy mix, diurnal profile, and the best/worst hours for running jobs.
//
// Usage: hpcarbon example region-explorer [CODE]
//   CODE in {KN, TK, ESO, CISO, PJM, MISO, ERCOT}; default ESO.
#include <iostream>
#include <string>

#include "core/options.h"
#include "core/stats.h"
#include "core/table.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "grid/simulator.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main(int argc, char** argv) {
  std::string code = "ESO";
  options::Table flags("example region-explorer", "[CODE]",
                       "CODE in {KN, TK, ESO, CISO, PJM, MISO, ERCOT}; "
                       "default ESO.");
  flags.positional([&code](const std::string& arg) { code = arg; }, 1);
  if (!flags.parse(argc - 1, argv + 1, std::cout)) return 0;
  const grid::RegionSpec spec = grid::require_region(code);

  std::cout << banner("Region " + spec.code + " — " + spec.name);
  std::cout << spec.country << ", " << spec.area << " (UTC"
            << (spec.tz.utc_offset_hours() >= 0 ? "+" : "")
            << spec.tz.utc_offset_hours() << ")\n\n";

  grid::GridSimulator sim(spec);
  const auto trace = sim.run();
  const auto summary = grid::summarize(trace);

  std::cout << "Annual carbon intensity (gCO2/kWh):\n";
  TextTable s({"min", "Q1", "median", "Q3", "max", "mean", "CoV %"});
  s.add_row({TextTable::num(summary.box.min, 0),
             TextTable::num(summary.box.q1, 0),
             TextTable::num(summary.box.median, 0),
             TextTable::num(summary.box.q3, 0),
             TextTable::num(summary.box.max, 0),
             TextTable::num(summary.box.mean, 0),
             TextTable::num(summary.cov_percent, 1)});
  std::cout << s.to_string() << "\n";

  std::cout << "Annual energy mix:\n";
  const auto mix = sim.annual_mix();
  TextTable m({"Source", "share %", ""});
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    m.add_row({grid::to_string(spec.sources[i].type),
               TextTable::num(100.0 * mix[i], 1), bar(mix[i], 0.6, 30)});
  }
  m.add_row({"imports", TextTable::num(100.0 * mix.back(), 1),
             bar(mix.back(), 0.6, 30)});
  std::cout << m.to_string() << "\n";

  std::cout << "Mean diurnal profile (local time):\n";
  const auto prof = grid::diurnal_profile(trace);
  double lo = prof[0], hi = prof[0];
  int lo_h = 0, hi_h = 0;
  TextTable d({"hour", "gCO2/kWh", ""});
  for (int h = 0; h < kHoursPerDay; ++h) {
    const double v = prof[static_cast<std::size_t>(h)];
    if (v < lo) { lo = v; lo_h = h; }
    if (v > hi) { hi = v; hi_h = h; }
    d.add_row({std::to_string(h), TextTable::num(v, 0),
               bar(v, summary.box.max, 30)});
  }
  std::cout << d.to_string();

  std::cout << "\nGreenest hour: " << lo_h << ":00 local ("
            << TextTable::num(lo, 0) << " g/kWh); dirtiest: " << hi_h
            << ":00 (" << TextTable::num(hi, 0)
            << " g/kWh). A job shifted from the dirtiest to the greenest "
               "hour cuts its operational carbon by "
            << TextTable::num(100.0 * (hi - lo) / hi, 0) << "%.\n";
  return 0;
}

HPCARBON_TOOL("region-explorer", ToolKind::kExample,
              "Inspect any Table 3 region: stats, mix, diurnal profile [CODE]")
