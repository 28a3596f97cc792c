#include "hw/power.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "hw/perf.h"

namespace hpcarbon::hw {
namespace {

using workload::Suite;

TEST(Power, TrainingPowerInPhysicalRange) {
  // 4-GPU training nodes draw roughly 1-2.5 kW.
  for (const NodeConfig& n : {p100_node(), v100_node(), a100_node()}) {
    for (Suite s : workload::all_suites()) {
      const double w = node_training_power(n, s).to_watts();
      EXPECT_GT(w, 900.0) << n.name;
      EXPECT_LT(w, 2500.0) << n.name;
    }
  }
}

TEST(Power, IdleGpusDrawIdleFloor) {
  const NodeConfig v = v100_node();
  const auto& bert = workload::model_by_name("BERT");
  const double all4 = node_training_power(v, bert, 4).to_watts();
  const double just1 = node_training_power(v, bert, 1).to_watts();
  const auto& gpu = embodied::processor(v.gpu);
  // Difference: 3 GPUs move from active draw to idle floor.
  const double expected =
      3 * (gpu.tdp_watts * bert.gpu_power_utilization - gpu.idle_watts);
  EXPECT_NEAR(all4 - just1, expected, 1e-9);
}

TEST(Power, NewerNodesUseLessEnergyPerJob) {
  // The physical basis of RQ 7: upgrades save operational energy. A
  // sample costs the busy power over the model's throughput.
  for (const auto* m : workload::all_models()) {
    const auto joules_per_sample = [m](const NodeConfig& n) {
      return node_training_power(n, *m).to_watts() / throughput(*m, n);
    };
    const double p = joules_per_sample(p100_node());
    const double v = joules_per_sample(v100_node());
    const double a = joules_per_sample(a100_node());
    EXPECT_LT(v, p) << m->name;
    EXPECT_LT(a, v) << m->name;
  }
}

TEST(Power, RejectsBadGpuCount) {
  const auto& bert = workload::model_by_name("BERT");
  EXPECT_THROW(node_training_power(v100_node(), bert, 5), Error);
}

}  // namespace
}  // namespace hpcarbon::hw
