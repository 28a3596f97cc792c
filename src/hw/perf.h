// Training performance model for GPU nodes.
//
// Single-GPU throughput is the benchmark's P100-reference throughput times
// its architecture factor. Multi-GPU (data parallel, constant per-GPU batch,
// matching RQ 3's setup) divides the aggregate by the communication
// inflation
//
//   step(k) = t_comp * (1 + r * 2(k-1)/k + l * (k-1))
//
// with the benchmark's ring/sync overheads r, l (see workload/model.h).
#pragma once

#include "workload/model.h"
#include "hw/node.h"

namespace hpcarbon::hw {

/// Per-model throughput multiplier versus the P100 baseline.
double arch_factor(const workload::BenchmarkModel& m, GpuArch arch);

/// Training throughput (samples/s) of `m` on `k` GPUs of `node`.
/// k defaults to every GPU in the node.
double throughput(const workload::BenchmarkModel& m, const NodeConfig& node,
                  int gpus_used = 0);

/// Mean per-model *time-to-solution ratio* T_new/T_old for a suite; the
/// quantity that scales busy energy in the upgrade model. Equals
/// mean_i(1/speedup_i), i.e. 1 - (Table 6 improvement).
double suite_time_ratio(workload::Suite suite, const NodeConfig& from,
                        const NodeConfig& to);

/// Table 6: percentage improvement = 100 * (1 - mean time ratio).
double upgrade_improvement_percent(workload::Suite suite,
                                   const NodeConfig& from,
                                   const NodeConfig& to);

}  // namespace hpcarbon::hw
