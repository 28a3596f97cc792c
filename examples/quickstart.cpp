// Quickstart: the full C_total = C_em + C_op pipeline in ~60 lines.
//
//   1. Model a GPU node's embodied carbon (Eq. 2-5).
//   2. Generate an hourly carbon-intensity trace for a real region.
//   3. Track a training job with the carbontracker-style Tracker (Eq. 6).
//   4. Combine both into the node's lifetime footprint (Eq. 1).
//
// Usage: hpcarbon example quickstart
#include <iostream>

#include "core/stats.h"
#include "embodied/catalog.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/node.h"
#include "hw/perf.h"
#include "lifecycle/footprint.h"
#include "op/attribution.h"
#include "op/tracker.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  // 1. Embodied carbon of a Table 5 A100 node (4x A100 PCIe + 4x EPYC 7542
  //    + 512 GB DDR4 + local SSD).
  const hw::NodeConfig node = hw::a100_node();
  const Mass embodied = hw::node_embodied(node);
  std::cout << "A100 node embodied carbon: " << to_string(embodied) << "\n";
  for (auto id : {node.gpu, node.cpu}) {
    const auto b = embodied::embodied_of(id);
    std::cout << "  " << embodied::display_name(id) << ": "
              << to_string(b.total()) << " ("
              << static_cast<int>(100 * b.packaging_share() + 0.5)
              << "% packaging)\n";
  }

  // 2. Hourly 2021-style carbon intensity for Great Britain (UK ESO).
  const auto trace = grid::GridSimulator(grid::eso()).run();
  std::cout << "\nESO trace: median "
            << to_string(CarbonIntensity::grams_per_kwh(
                   stats::median(trace.values())))
            << ", CoV " << stats::cov_percent(trace.values()) << "%\n";

  // 3. Track one BERT fine-tuning run (1M samples) starting at midnight on
  //    March 1st, carbontracker-style, and bill it completely: Eq. 6
  //    operational carbon plus its amortized share of the node's embodied
  //    carbon.
  op::Tracker tracker(trace, HourOfYear(month_start_hour(2)));
  const auto& bert = workload::model_by_name("BERT");
  const auto bill = op::billed_training(tracker, node, bert, 1e6);
  std::cout << "\n" << bill.operational.to_string();
  std::cout << "  embodied share:    " << to_string(bill.embodied_share)
            << " (" << static_cast<int>(100 * bill.embodied_fraction() + 0.5)
            << "% of the job's total bill)\n";

  // 4. Five-year lifetime footprint at 40% GPU usage on this grid.
  const auto lifetime = lifecycle::node_lifetime_footprint(
      node, workload::Suite::kNlp, 0.4, 5.0, trace);
  std::cout << "\n5-year node footprint on the ESO grid:\n  "
            << lifetime.to_string() << "\n";

  std::cout << "\nEq. 1 in action: "
            << static_cast<int>(100 * lifetime.embodied_share() + 0.5)
            << "% of this node's lifetime carbon was emitted before it ever "
               "ran a job. Re-price the same node on 20 g/kWh hydro and that "
               "share becomes "
            << static_cast<int>(
                   100 * lifecycle::node_lifetime_footprint(
                             node, workload::Suite::kNlp, 0.4, 5.0,
                             CarbonIntensity::grams_per_kwh(20))
                             .embodied_share() +
                   0.5)
            << "% — the greener the grid, the more embodied carbon "
               "dominates.\n";
  return 0;
}

HPCARBON_TOOL("quickstart", ToolKind::kExample,
              "Full C_total = C_em + C_op pipeline in ~60 lines")
