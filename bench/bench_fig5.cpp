// Figure 5 (RQ 4): embodied-carbon contribution by component class for
// Frontier, LUMI, and Perlmutter.
//
// Paper reference shares (GPU/CPU/DRAM/SSD/HDD %):
//   Frontier   36 /  5 / 17 / 12 / 30
//   LUMI       42 / 12 / 25 /  6 / 15
//   Perlmutter 22 / 18 / 30 / 30 /  0
#include <iostream>

#include "bench_common.h"
#include "lifecycle/systems.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner(
      "Figure 5: Embodied carbon breakdown of leadership systems");

  const double paper[3][5] = {{36, 5, 17, 12, 30},
                              {42, 12, 25, 6, 15},
                              {22, 18, 30, 30, 0}};

  TextTable t({"System", "GPU %", "CPU %", "DRAM %", "SSD %", "HDD %",
               "Mem+Storage %"});
  const auto systems = lifecycle::studied_systems();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const auto b = lifecycle::class_breakdown(systems[i]);
    auto cell = [&](embodied::PartClass cls, double ref) {
      return bench::vs_paper(b.share_percent(cls), ref, 0);
    };
    t.add_row({systems[i].name,
               cell(embodied::PartClass::kGpu, paper[i][0]),
               cell(embodied::PartClass::kCpu, paper[i][1]),
               cell(embodied::PartClass::kDram, paper[i][2]),
               cell(embodied::PartClass::kSsd, paper[i][3]),
               cell(embodied::PartClass::kHdd, paper[i][4]),
               TextTable::num(b.memory_storage_share_percent(), 1)});
  }
  bench::print_table(t);

  const auto fb = lifecycle::class_breakdown(lifecycle::frontier());
  std::cout << "\nFrontier GPU/CPU embodied ratio: "
            << TextTable::num(fb.share_percent(embodied::PartClass::kGpu) /
                                  fb.share_percent(embodied::PartClass::kCpu),
                              1)
            << "x (paper: more than 7x)\n";
  std::cout << "Observation 5: memory+storage contribute ~60% (Frontier, "
               "Perlmutter) and ~50% (LUMI) of embodied carbon."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig5", ToolKind::kBench,
              "Fig. 5: embodied-carbon share by component for three systems")
