#include "hw/power.h"

#include "core/error.h"

namespace hpcarbon::hw {

namespace {

struct NodeParts {
  const embodied::ProcessorPart* gpu;
  const embodied::ProcessorPart* cpu;
  const embodied::MemoryPart* dimm;
  const embodied::MemoryPart* ssd;
};

NodeParts parts(const NodeConfig& node) {
  return {&embodied::processor(node.gpu), &embodied::processor(node.cpu),
          &embodied::memory(embodied::PartId::kDram64GbDdr4),
          &embodied::memory(embodied::PartId::kSsdNytro3530_3_2Tb)};
}

}  // namespace

Power node_training_power(const NodeConfig& node,
                          const workload::BenchmarkModel& m, int gpus_used) {
  const int k = gpus_used == 0 ? node.gpu_count : gpus_used;
  HPC_REQUIRE(k >= 1 && k <= node.gpu_count,
              "requested more GPUs than the node has");
  const NodeParts p = parts(node);
  double w = node.platform_watts;
  w += p.gpu->tdp_watts * m.gpu_power_utilization * k;
  w += p.gpu->idle_watts * (node.gpu_count - k);
  w += p.cpu->tdp_watts * kCpuActiveFraction * node.cpu_count;
  w += p.dimm->active_watts * node.dram_module_count();
  w += p.ssd->active_watts * node.ssd_count;
  return Power::watts(w);
}

Power node_training_power(const NodeConfig& node, workload::Suite suite) {
  const auto& ms = workload::models(suite);
  Power acc;
  for (const auto& m : ms) acc += node_training_power(node, m);
  return acc / static_cast<double>(ms.size());
}

}  // namespace hpcarbon::hw
