#include "hw/node.h"

#include <cmath>

#include "core/error.h"

namespace hpcarbon::hw {

int NodeConfig::dram_module_count() const {
  const auto& dimm = embodied::memory(embodied::PartId::kDram64GbDdr4);
  return static_cast<int>(std::ceil(dram_gb / dimm.capacity_gb));
}

Mass node_embodied(const NodeConfig& node, EmbodiedScope scope) {
  HPC_REQUIRE(node.gpu_count >= 0 && node.cpu_count > 0,
              "node must have CPUs and a non-negative GPU count");
  Mass total = embodied::embodied_of(node.gpu).total() * node.gpu_count +
               embodied::embodied_of(node.cpu).total() * node.cpu_count;
  if (scope == EmbodiedScope::kFullNode) {
    total += embodied::embodied_of(embodied::PartId::kDram64GbDdr4).total() *
             node.dram_module_count();
    total +=
        embodied::embodied_of(embodied::PartId::kSsdNytro3530_3_2Tb).total() *
        node.ssd_count;
  }
  return total;
}

Mass sample_node_embodied(const NodeConfig& node, EmbodiedScope scope,
                          const embodied::UncertaintyBands& bands, Rng& rng) {
  HPC_REQUIRE(node.gpu_count >= 0 && node.cpu_count > 0,
              "node must have CPUs and a non-negative GPU count");
  const auto& gpu = embodied::processor(node.gpu);
  const auto& cpu = embodied::processor(node.cpu);
  // Part-aware band validation (yield band vs the sampler's clamp) must
  // run here, not just in embodied::propagate: the lifecycle distribution
  // APIs reach the processor samplers only through this seam.
  embodied::validate(gpu, bands);
  embodied::validate(cpu, bands);
  // Mirrors node_embodied term by term, with each part's point value
  // replaced by one sampled draw. Draw order is fixed (GPU, CPU, then
  // DRAM/SSD in full scope) so a given (seed, sample) pair is reproducible.
  double grams =
      embodied::sample_embodied_grams(gpu, bands, rng) * node.gpu_count +
      embodied::sample_embodied_grams(cpu, bands, rng) * node.cpu_count;
  if (scope == EmbodiedScope::kFullNode) {
    grams += embodied::sample_embodied_grams(
                 embodied::memory(embodied::PartId::kDram64GbDdr4), bands,
                 rng) *
             node.dram_module_count();
    grams += embodied::sample_embodied_grams(
                 embodied::memory(embodied::PartId::kSsdNytro3530_3_2Tb),
                 bands, rng) *
             node.ssd_count;
  }
  return Mass::grams(grams);
}

NodeConfig p100_node() {
  NodeConfig n;
  n.name = "P100";
  n.gpu = embodied::PartId::kP100Pcie16;
  n.gpu_count = 4;
  n.arch = GpuArch::kPascal;
  n.cpu = embodied::PartId::kXeonE5_2680;
  n.cpu_count = 2;
  n.dram_gb = 256;
  return n;
}

NodeConfig v100_node() {
  NodeConfig n;
  n.name = "V100";
  n.gpu = embodied::PartId::kV100Sxm2_32;
  n.gpu_count = 4;
  n.arch = GpuArch::kVolta;
  n.cpu = embodied::PartId::kXeonGold6240R;
  n.cpu_count = 2;
  n.dram_gb = 384;
  return n;
}

NodeConfig a100_node() {
  NodeConfig n;
  n.name = "A100";
  n.gpu = embodied::PartId::kA100Pcie40;
  n.gpu_count = 4;
  n.arch = GpuArch::kAmpere;
  n.cpu = embodied::PartId::kEpyc7542;
  n.cpu_count = 4;
  n.dram_gb = 512;
  return n;
}

NodeConfig fig4_node(int gpu_count) {
  HPC_REQUIRE(gpu_count >= 1 && gpu_count <= 8, "GPU count out of range");
  NodeConfig n = v100_node();
  n.name = "2x Xeon 6240R + " + std::to_string(gpu_count) + "x V100";
  n.gpu_count = gpu_count;
  return n;
}

}  // namespace hpcarbon::hw
