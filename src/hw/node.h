// Compute-node configurations: the three node generations of Table 5 plus
// the variable-GPU-count node of Fig. 4 (RQ 3).
//
//   P100 node — 4x Tesla P100 PCIe,   2x Xeon E5-2680
//   V100 node — 4x Tesla V100 SXM2,   2x Xeon Gold 6240R
//   A100 node — 4x A100 PCIe 40GB,    4x EPYC 7542
//
// Node embodied carbon can be rolled up at two scopes:
//  * compute scope (CPUs + GPUs) — the basis of Fig. 4's normalized node
//    embodied carbon;
//  * full scope (adds DRAM modules and the local SSD) — the basis of the
//    upgrade analysis (Figs. 8-9), where an upgrade procures a whole node.
#pragma once

#include <string>

#include "core/rng.h"
#include "core/units.h"
#include "embodied/catalog.h"
#include "embodied/uncertainty.h"

namespace hpcarbon::hw {

/// NVIDIA datacenter GPU generations studied in RQ 7/8.
enum class GpuArch { kPascal, kVolta, kAmpere };

struct NodeConfig {
  std::string name;
  embodied::PartId gpu = embodied::PartId::kV100Sxm2_32;
  int gpu_count = 4;
  GpuArch arch = GpuArch::kVolta;
  embodied::PartId cpu = embodied::PartId::kXeonGold6240R;
  int cpu_count = 2;
  double dram_gb = 384;  // node memory, in catalog 64GB modules
  int ssd_count = 1;     // local scratch (catalog 3.2TB SSD)
  /// Chassis/fans/NIC/VRM electrical overhead, always on.
  double platform_watts = 150;

  int dram_module_count() const;
};

enum class EmbodiedScope { kComputeOnly, kFullNode };

/// Node embodied carbon (Eq. 2 summed over components in scope).
Mass node_embodied(const NodeConfig& node,
                   EmbodiedScope scope = EmbodiedScope::kFullNode);

/// One Monte-Carlo draw of node_embodied under part-level input bands
/// (the per-sample seam of the lifecycle uncertainty layer). Perturbations
/// are drawn once per part *model* and scaled by count: the bands describe
/// model/vendor uncertainty (is the A100's per-area factor right?), which
/// is fully correlated across identical parts in one node, not
/// unit-to-unit manufacturing variation.
Mass sample_node_embodied(const NodeConfig& node, EmbodiedScope scope,
                          const embodied::UncertaintyBands& bands, Rng& rng);

// Table 5 presets.
NodeConfig p100_node();
NodeConfig v100_node();
NodeConfig a100_node();

/// Fig. 4 node: 2x Xeon Gold 6240R with a configurable V100 count.
NodeConfig fig4_node(int gpu_count);

}  // namespace hpcarbon::hw
