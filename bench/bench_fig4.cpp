// Figure 4 (RQ 3): embodied carbon vs performance as the number of V100
// GPUs in a node (2x Xeon Gold 6240R) grows from 1 to 4, per benchmark
// suite, both normalized to the 1-GPU node.
//
// Paper reference: at 2 GPUs both rise 30-40% (perf/embodied ~ 1.0); at 4
// GPUs perf/embodied drops to ~0.88 (NLP, CANDLE) and ~0.79 (Vision).
#include <iostream>

#include "bench_common.h"
#include "hw/node.h"
#include "hw/perf.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

double suite_perf(workload::Suite s, int k) {
  const auto& ms = workload::models(s);
  double acc = 0;
  for (const auto& m : ms) {
    acc += hw::throughput(m, hw::fig4_node(k)) /
           hw::throughput(m, hw::fig4_node(1));
  }
  return acc / static_cast<double>(ms.size());
}

}  // namespace

static int tool_main() {
  bench::print_banner(
      "Figure 4: Embodied carbon and performance vs number of GPUs");

  const double e1 =
      hw::node_embodied(hw::fig4_node(1), hw::EmbodiedScope::kComputeOnly)
          .to_grams();

  TextTable t({"Suite", "GPUs", "Embodied (norm)", "Performance (norm)",
               "Perf / Embodied", "Paper ratio"});
  for (auto s : workload::all_suites()) {
    for (int k : {1, 2, 4}) {
      const double ek =
          hw::node_embodied(hw::fig4_node(k), hw::EmbodiedScope::kComputeOnly)
              .to_grams() /
          e1;
      const double perf = suite_perf(s, k);
      double paper_ratio = 1.0;
      if (k == 4) paper_ratio = (s == workload::Suite::kVision) ? 0.79 : 0.88;
      t.add_row({workload::to_string(s), std::to_string(k),
                 TextTable::num(ek, 3), TextTable::num(perf, 3),
                 TextTable::num(perf / ek, 3),
                 TextTable::num(paper_ratio, 2)});
    }
  }
  bench::print_table(t);

  std::cout << "\nObservation 4: embodied carbon grows linearly with GPU "
               "count while performance saturates; carbon per unit of "
               "achieved performance worsens at 4 GPUs."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("fig4", ToolKind::kBench,
              "Fig. 4: embodied carbon vs performance as GPUs per node grow")
