#include "hw/perf.h"

#include "core/error.h"

namespace hpcarbon::hw {

double arch_factor(const workload::BenchmarkModel& m, GpuArch arch) {
  switch (arch) {
    case GpuArch::kPascal: return 1.0;
    case GpuArch::kVolta: return m.volta_factor;
    case GpuArch::kAmpere: return m.ampere_factor;
  }
  return 1.0;
}

double throughput(const workload::BenchmarkModel& m, const NodeConfig& node,
                  int gpus_used) {
  const int k = gpus_used == 0 ? node.gpu_count : gpus_used;
  HPC_REQUIRE(k >= 1 && k <= node.gpu_count,
              "requested more GPUs than the node has");
  const double single = m.base_p100_samples_per_s * arch_factor(m, node.arch);
  if (k == 1) return single;
  const double kd = k;
  const double inflate =
      1.0 + m.ring_overhead * (2.0 * (kd - 1.0) / kd) +
      m.sync_overhead * (kd - 1.0);
  return single * kd / inflate;
}

double suite_time_ratio(workload::Suite suite, const NodeConfig& from,
                        const NodeConfig& to) {
  const auto& ms = workload::models(suite);
  double acc = 0;
  for (const auto& m : ms) {
    acc += throughput(m, from) / throughput(m, to);
  }
  return acc / static_cast<double>(ms.size());
}

double upgrade_improvement_percent(workload::Suite suite,
                                   const NodeConfig& from,
                                   const NodeConfig& to) {
  return 100.0 * (1.0 - suite_time_ratio(suite, from, to));
}

}  // namespace hpcarbon::hw
