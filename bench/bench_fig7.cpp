// Figure 7 (RQ 6): for each hour of the day (JST-aligned, as in the paper),
// how many days of the year each of the three greenest regions (ESO, CISO,
// ERCOT) has the lowest carbon intensity.
//
// Paper shape: ESO dominates JST hours ~8-20 (UK midnight-to-noon); CISO
// wins most other hours; no region wins every hour; ERCOT takes scattered
// days.
#include <iostream>

#include "bench_common.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "grid/simulator.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  const auto winners = grid::hourly_lowest_ci(traces, kJst);

  bench::print_banner(
      "Figure 7: Days with the lowest carbon intensity per JST hour");
  TextTable t({"JST hour", "ESO (GB)", "CISO (Cal)", "ERCOT (Tex)",
               "leader"});
  for (int h = 0; h < kHoursPerDay; ++h) {
    const auto hu = static_cast<std::size_t>(h);
    const int eso = winners.counts[0][hu];
    const int ciso = winners.counts[1][hu];
    const int ercot = winners.counts[2][hu];
    std::string leader = "ESO";
    if (ciso >= eso && ciso >= ercot) leader = "CISO";
    if (ercot > eso && ercot > ciso) leader = "ERCOT";
    t.add_row({std::to_string(h), std::to_string(eso), std::to_string(ciso),
               std::to_string(ercot), leader});
  }
  bench::print_table(t);

  int eso_total = 0, ciso_total = 0, ercot_total = 0;
  for (int h = 0; h < kHoursPerDay; ++h) {
    const auto hu = static_cast<std::size_t>(h);
    eso_total += winners.counts[0][hu];
    ciso_total += winners.counts[1][hu];
    ercot_total += winners.counts[2][hu];
  }
  std::cout << "\nannual winner-hours: ESO " << eso_total << ", CISO "
            << ciso_total << ", ERCOT " << ercot_total << "\n";
  std::cout << "Insight 7: no single region is the consistent winner — the "
               "case for geographically distributed, carbon-aware job "
               "placement."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig7", ToolKind::kBench,
              "Fig. 7: hour-of-day lowest-CI winner analysis (JST-aligned)")
