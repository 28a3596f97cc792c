// Upgrade advisor: the decision framework of RQ 7/8 as a small CLI.
//
// Given the current node generation, a candidate upgrade, the facility's
// average carbon intensity, GPU usage, and expected remaining service life,
// it reports whether the upgrade is carbon-positive and when it breaks even.
//
// Usage: hpcarbon example upgrade-advisor [from] [to] [ci_g_per_kwh]
//            [usage] [years]
//   e.g. hpcarbon example upgrade-advisor V100 A100 200 0.4 4
// Defaults: V100 A100 200 0.4 4. ci_g_per_kwh and years must be positive,
// usage in (0, 1].
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/table.h"
#include "lifecycle/upgrade.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

hw::NodeConfig node_by_name(const std::string& name) {
  if (name == "P100") return hw::p100_node();
  if (name == "V100") return hw::v100_node();
  if (name == "A100") return hw::a100_node();
  throw Error("unknown node generation: " + name +
              " (expected P100, V100, or A100)");
}

}  // namespace

static int tool_main(int argc, char** argv) {
  // Every argument is read before anything prints: a bad one is the
  // driver's one-line error, not a half-printed table.
  std::vector<std::string> args;
  options::Table flags("example upgrade-advisor",
                       "[from] [to] [ci_g_per_kwh] [usage] [years]",
                       "Defaults: V100 A100 200 0.4 4. Nodes are P100, V100 "
                       "or A100; ci_g_per_kwh and years must be positive, "
                       "usage in (0, 1].");
  flags.positional([&args](const std::string& arg) { args.push_back(arg); },
                   5);
  if (!flags.parse(argc - 1, argv + 1, std::cout)) return 0;
  const std::string from = !args.empty() ? args[0] : "V100";
  const std::string to = args.size() > 1 ? args[1] : "A100";
  const hw::NodeConfig old_node = node_by_name(from);
  const hw::NodeConfig new_node = node_by_name(to);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto number = [&](std::size_t i, const char* name,
                          options::Range range, double fallback) {
    return i < args.size() ? options::parse_number(name, args[i], range)
                           : fallback;
  };
  const double ci = number(2, "ci_g_per_kwh", {0, kInf, true}, 200.0);
  const double usage = number(3, "usage", {0, 1, true}, 0.4);
  const double horizon = number(4, "years", {0, kInf, true}, 4.0);

  std::cout << banner("Carbon-aware upgrade advisor: " + from + " -> " + to);
  std::cout << "carbon intensity " << ci << " g/kWh, GPU usage "
            << usage * 100 << "%, planning horizon " << horizon
            << " years\n\n";

  TextTable t({"Workload", "perf gain %", "embodied tax", "break-even (y)",
               "savings at horizon", "verdict"});
  int favorable = 0;
  for (auto s : workload::all_suites()) {
    lifecycle::UpgradeScenario sc;
    sc.old_node = old_node;
    sc.new_node = new_node;
    sc.suite = s;
    sc.intensity = CarbonIntensity::grams_per_kwh(ci);
    sc.usage = lifecycle::UsageProfile{usage};
    const double perf =
        hw::upgrade_improvement_percent(s, sc.old_node, sc.new_node);
    const auto be = lifecycle::breakeven_years(sc);
    const double savings = lifecycle::savings_percent(sc, horizon);
    const bool good = be.has_value() && *be < horizon;
    favorable += good;
    t.add_row({workload::to_string(s), TextTable::num(perf, 1),
               to_string(lifecycle::upgrade_embodied(sc)),
               be ? TextTable::num(*be, 2) : "never",
               TextTable::pct(savings, 1),
               good ? "upgrade" : "extend lifetime"});
  }
  std::cout << t.to_string();

  std::cout << "\nRecommendation: ";
  if (favorable == 3) {
    std::cout << "upgrade — the embodied carbon amortizes within your "
                 "horizon for every workload mix.\n";
  } else if (favorable == 0) {
    std::cout << "extend the current hardware's lifetime — on this energy "
                 "mix the embodied tax of new silicon outweighs the "
                 "operational savings (Insight 8).\n";
  } else {
    std::cout << "depends on your workload mix — see per-suite verdicts "
                 "above (Insight 9).\n";
  }
  return 0;
}

HPCARBON_TOOL("upgrade-advisor", ToolKind::kExample,
              "Is a node upgrade carbon-positive, and when does it break even?")
