// Figure 9 (RQ 8): carbon savings after upgrade under different GPU usage
// patterns (high 60%, medium 40%, low 26.7%), carbon intensity fixed at
// 200 gCO2/kWh.
//
// Paper shape: after one year of a V100->A100 upgrade on NLP, high/medium
// usage is clearly in the green while low usage has only just paid off the
// embodied carbon; the usage effect is real but smaller than the intensity
// effect of Fig. 8.
#include <iostream>

#include "bench_common.h"
#include "lifecycle/upgrade.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  bench::print_banner(
      "Figure 9: Carbon savings after upgrade by usage pattern (200 g/kWh)");

  const std::vector<double> years = {0.25, 0.5, 1, 2, 3, 4, 5};
  const std::pair<hw::NodeConfig, hw::NodeConfig> upgrades[3] = {
      {hw::p100_node(), hw::v100_node()},
      {hw::p100_node(), hw::a100_node()},
      {hw::v100_node(), hw::a100_node()}};
  const lifecycle::UsageProfile usages[3] = {lifecycle::UsageProfile::high(),
                                             lifecycle::UsageProfile::medium(),
                                             lifecycle::UsageProfile::low()};
  const char* usage_name[3] = {"high (60%)", "medium (40%)", "low (26.7%)"};

  for (auto s : workload::all_suites()) {
    for (const auto& [from, to] : upgrades) {
      std::cout << "\n-- " << workload::to_string(s) << ", " << from.name
                << " to " << to.name << " upgrade --\n";
      TextTable t({"GPU usage", "0.25y", "0.5y", "1y", "2y", "3y", "4y",
                   "5y", "break-even (y)"});
      for (int u = 0; u < 3; ++u) {
        lifecycle::UpgradeScenario sc;
        sc.old_node = from;
        sc.new_node = to;
        sc.suite = s;
        sc.intensity = CarbonIntensity::grams_per_kwh(200);
        sc.usage = usages[u];
        std::vector<std::string> row = {usage_name[u]};
        for (double v : lifecycle::savings_curve(sc, years)) {
          row.push_back(TextTable::pct(v, 1));
        }
        const auto be = lifecycle::breakeven_years(sc);
        row.push_back(be ? TextTable::num(*be, 2) : "never");
        t.add_row(row);
      }
      bench::print_table(t);
    }
  }

  std::cout << "\nInsight 9: low utilization stretches the amortization of "
               "the upgrade's embodied carbon — extending hardware lifetime "
               "is attractive for under-utilized, green-powered centers."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig9", ToolKind::kBench,
              "Fig. 9: upgrade savings under different GPU usage patterns")
