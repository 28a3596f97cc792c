// Node power model.
//
// During training the GPUs draw a benchmark-dependent fraction of TDP
// (~0.92 for the dense DL workloads modeled here) while the host CPUs run
// the input pipeline at a partial load and GPUs left out of the job draw
// their idle floor, all on top of the platform overhead. This mirrors what
// NVML/RAPL-based measurement (the paper uses carbontracker) reports on
// real nodes.
#pragma once

#include "core/units.h"
#include "hw/node.h"
#include "workload/model.h"

namespace hpcarbon::hw {

/// Host-CPU load fraction (of TDP) while feeding GPU training.
inline constexpr double kCpuActiveFraction = 0.45;

/// Node power while training `m` on `gpus_used` GPUs (0 = all). GPUs not
/// participating idle.
Power node_training_power(const NodeConfig& node,
                          const workload::BenchmarkModel& m,
                          int gpus_used = 0);

/// Suite-average training power (all GPUs busy).
Power node_training_power(const NodeConfig& node, workload::Suite suite);

}  // namespace hpcarbon::hw
