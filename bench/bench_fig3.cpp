// Figure 3: manufacturing vs packaging split of the embodied carbon per
// device class (the paper's ring charts).
//
// Paper reference: GPU 15% / CPU 7% / DRAM 42% / SSD 2% / HDD 2% packaging.
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"
#include "embodied/catalog.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner(
      "Figure 3: Manufacturing vs packaging share of embodied carbon");

  const std::map<embodied::PartClass, double> paper = {
      {embodied::PartClass::kGpu, 15.0}, {embodied::PartClass::kCpu, 7.0},
      {embodied::PartClass::kDram, 42.0}, {embodied::PartClass::kSsd, 2.0},
      {embodied::PartClass::kHdd, 2.0}};

  std::map<embodied::PartClass, std::pair<double, double>> agg;  // pkg, total
  for (auto id : embodied::table1_parts()) {
    const auto b = embodied::embodied_of(id);
    const auto cls = embodied::is_processor(id)
                         ? embodied::processor(id).cls
                         : embodied::memory(id).cls;
    agg[cls].first += b.packaging.to_grams();
    agg[cls].second += b.total().to_grams();
  }

  TextTable t({"Class", "Manufacturing %", "Packaging %",
               "Packaging % (paper)"});
  for (const auto& [cls, pt] : agg) {
    const double pkg = 100.0 * pt.first / pt.second;
    t.add_row({to_string(cls), TextTable::num(100.0 - pkg, 1),
               TextTable::num(pkg, 1), TextTable::num(paper.at(cls), 0)});
  }
  bench::print_table(t);

  std::cout << "\nObservation 3: manufacturing dominates everywhere except "
               "DRAM, where packaging contributes over 40%."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig3", ToolKind::kBench,
              "Fig. 3: manufacturing vs packaging split per device class")
