// Figure 6 (RQ 5): annual carbon-intensity distribution (box stats) and
// coefficient of variation for the seven Table 3 operators, 8760 hourly
// samples per region.
//
// Paper shape: ESO lowest median (<200 g/kWh) with the highest CoV; Tokyo
// highest median (~3x ESO) with the lowest CoV; ESO and CISO are the two
// most variable regions.
#include <iostream>

#include "bench_common.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "grid/simulator.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  const auto traces = grid::generate_traces(grid::all_regions());
  const auto summaries = grid::summarize(traces);

  bench::print_banner("Figure 6 (a): Annual carbon intensity by region");
  TextTable a({"Region", "whisker-", "Q1", "Median", "Q3", "whisker+",
               "Mean"});
  for (const auto& s : summaries) {
    a.add_row({s.code, TextTable::num(s.box.whisker_low, 0),
               TextTable::num(s.box.q1, 0), TextTable::num(s.box.median, 0),
               TextTable::num(s.box.q3, 0),
               TextTable::num(s.box.whisker_high, 0),
               TextTable::num(s.box.mean, 0)});
  }
  bench::print_table(a);

  bench::print_banner("Figure 6 (b): CoV (%) of annual carbon intensity");
  TextTable b({"Region", "CoV %", ""});
  double max_cov = 0;
  for (const auto& s : summaries) max_cov = std::max(max_cov, s.cov_percent);
  for (const auto& s : summaries) {
    b.add_row({s.code, TextTable::num(s.cov_percent, 1),
               bar(s.cov_percent, max_cov, 34)});
  }
  bench::print_table(b);

  auto median_of = [&](const std::string& code) {
    for (const auto& s : summaries) {
      if (s.code == code) return s.box.median;
    }
    return 0.0;
  };
  std::cout << "\nTK/ESO median ratio: "
            << bench::vs_paper(median_of("TK") / median_of("ESO"), 3.0)
            << "\nInsight 6: the greenest regions (ESO, CISO) show the "
               "largest temporal variation; the dirtiest (TK, KN) the least."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig6", ToolKind::kBench,
              "Fig. 6: annual carbon-intensity distribution for seven regions")
