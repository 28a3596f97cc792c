// Figure 2: embodied carbon of DRAM/SSD/HDD devices, absolute and
// normalized to device bandwidth.
//
// Paper shape: each device 5-25 kgCO2 (comparable to compute units);
// per-GB/s cost HDD >> SSD >> DRAM.
#include <iostream>

#include "bench_common.h"
#include "embodied/catalog.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner("Figure 2 (a): Embodied carbon of DRAM/SSD/HDD");
  TextTable a({"Device", "Capacity (GB)", "EPC (g/GB)", "Embodied (kgCO2)",
               ""});
  for (auto id : embodied::table1_memory_storage()) {
    const auto& m = embodied::memory(id);
    const double kg = embodied::embodied_of(id).total().to_kilograms();
    a.add_row({m.name, TextTable::num(m.capacity_gb, 0),
               TextTable::num(m.epc_g_per_gb, 2), TextTable::num(kg, 2),
               bar(kg, 25.0, 34)});
  }
  bench::print_table(a);

  bench::print_banner("Figure 2 (b): Embodied carbon per bandwidth (GB/s)");
  TextTable b({"Device", "Bandwidth (GB/s)", "kgCO2 per GB/s", ""});
  for (auto id : embodied::table1_memory_storage()) {
    const auto& m = embodied::memory(id);
    const double r = embodied::kg_per_gbps(m);
    b.add_row({m.name, TextTable::num(m.bandwidth_gb_per_s, 3),
               TextTable::num(r, 2), bar(r, 85.0, 34)});
  }
  bench::print_table(b);

  std::cout << "\nDRAM per-bandwidth carbon is negligible next to HDD "
               "(Observation 2 holds: capacity devices are comparable to "
               "compute units in absolute embodied carbon)."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig2", ToolKind::kBench,
              "Fig. 2: embodied carbon of DRAM/SSD/HDD, absolute and per-GB/s")
