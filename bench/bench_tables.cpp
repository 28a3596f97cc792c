// Reproduces the paper's configuration tables (1-5) from the library's
// catalogs, so that every constant the experiments depend on is printed and
// auditable.
#include <iostream>

#include "bench_common.h"
#include "embodied/catalog.h"
#include "grid/presets.h"
#include "hw/node.h"
#include "lifecycle/systems.h"
#include "workload/model.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

void table1() {
  bench::print_banner("Table 1: Modeled individual components");
  TextTable t({"Type", "Component", "Part Name", "Release Date"});
  for (auto id : embodied::table1_parts()) {
    if (embodied::is_processor(id)) {
      const auto& p = embodied::processor(id);
      t.add_row({to_string(p.cls), p.name, p.part_name, p.release});
    } else {
      const auto& m = embodied::memory(id);
      t.add_row({to_string(m.cls), m.name, m.part_name, m.release});
    }
  }
  bench::print_table(t);
}

void table2() {
  bench::print_banner("Table 2: Studied HPC systems");
  TextTable t({"System", "Location", "CPU & GPU", "Cores", "Year"});
  for (const auto& s : lifecycle::studied_systems()) {
    t.add_row({s.name, s.location, s.processors, std::to_string(s.cores),
               std::to_string(s.year)});
  }
  bench::print_table(t);
}

void table3() {
  bench::print_banner("Table 3: Independent system operators and regions");
  TextTable t({"Operator", "Country", "Region", "UTC offset"});
  for (const auto& r : grid::all_regions()) {
    t.add_row({r.name + " (" + r.code + ")", r.country, r.area,
               std::to_string(r.tz.utc_offset_hours())});
  }
  bench::print_table(t);
}

void table4() {
  bench::print_banner("Table 4: Benchmarks performed and their models");
  TextTable t({"Benchmark", "Models"});
  for (auto s : workload::all_suites()) {
    std::string names;
    for (const auto& m : workload::models(s)) {
      if (!names.empty()) names += ", ";
      names += m.name;
    }
    t.add_row({workload::to_string(s), names});
  }
  bench::print_table(t);
}

void table5() {
  bench::print_banner("Table 5: Different generations of nodes analyzed");
  TextTable t({"Name", "GPU", "CPU"});
  for (const auto& n : {hw::p100_node(), hw::v100_node(), hw::a100_node()}) {
    const auto& g = embodied::processor(n.gpu);
    const auto& c = embodied::processor(n.cpu);
    t.add_row({n.name,
               std::to_string(n.gpu_count) + " x " + g.part_name,
               std::to_string(n.cpu_count) + " x " + c.part_name});
  }
  bench::print_table(t);
}

}  // namespace

static int tool_main() {
  table1();
  table2();
  table3();
  table4();
  table5();
  std::cout << "\nAll configuration tables reproduced from library catalogs."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("tables", ToolKind::kBench,
              "Tables 1-5: every catalog constant the experiments depend on")
