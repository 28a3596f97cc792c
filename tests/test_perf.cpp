// Performance-model tests: RQ 3 (Fig. 4 scaling) and RQ 7 (Table 6).
#include "hw/perf.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::hw {
namespace {

using workload::Suite;

double suite_mean_speedup(Suite s, int k) {
  const auto& ms = workload::models(s);
  double acc = 0;
  for (const auto& m : ms) {
    acc += throughput(m, fig4_node(k)) / throughput(m, fig4_node(1));
  }
  return acc / static_cast<double>(ms.size());
}

TEST(Perf, SingleGpuThroughputUsesArchFactor) {
  const auto& bert = workload::model_by_name("BERT");
  const double p = throughput(bert, p100_node(), 1);
  const double v = throughput(bert, v100_node(), 1);
  const double a = throughput(bert, a100_node(), 1);
  EXPECT_DOUBLE_EQ(p, bert.base_p100_samples_per_s);
  EXPECT_NEAR(v / p, bert.volta_factor, 1e-12);
  EXPECT_NEAR(a / p, bert.ampere_factor, 1e-12);
}

TEST(Perf, ThroughputScalesSubLinearly) {
  for (const auto* m : workload::all_models()) {
    const double t1 = throughput(*m, fig4_node(1));
    const double t2 = throughput(*m, fig4_node(2));
    const double t4 = throughput(*m, fig4_node(4));
    EXPECT_GT(t2, t1) << m->name;          // more GPUs help…
    EXPECT_LT(t2, 2.0 * t1) << m->name;    // …but not perfectly
    EXPECT_GT(t4, t2) << m->name;
    EXPECT_LT(t4, 2.0 * t2) << m->name;
  }
}

TEST(Perf, Fig4TwoGpuSpeedupAbout30To40Percent) {
  // "when we increase the number of GPUs to 2, both the embodied carbon and
  //  the node performance are increased by approximately 30% to 40%".
  for (Suite s : workload::all_suites()) {
    const double sp = suite_mean_speedup(s, 2);
    EXPECT_GT(sp, 1.30) << workload::to_string(s);
    EXPECT_LT(sp, 1.45) << workload::to_string(s);
  }
}

TEST(Perf, Fig4PerfToEmbodiedRatioAtTwoGpusIsAboutOne) {
  const double e1 =
      node_embodied(fig4_node(1), EmbodiedScope::kComputeOnly).to_grams();
  const double e2 =
      node_embodied(fig4_node(2), EmbodiedScope::kComputeOnly).to_grams();
  for (Suite s : workload::all_suites()) {
    const double ratio = suite_mean_speedup(s, 2) / (e2 / e1);
    EXPECT_NEAR(ratio, 1.0, 0.05) << workload::to_string(s);
  }
}

TEST(Perf, Fig4PerfToEmbodiedRatioAtFourGpus) {
  // "the performance-to-embodied-carbon ratio has dropped to approximately
  //  0.88 for the NLP and CANDLE benchmarks, and 0.79 for the Vision".
  const double e1 =
      node_embodied(fig4_node(1), EmbodiedScope::kComputeOnly).to_grams();
  const double e4 =
      node_embodied(fig4_node(4), EmbodiedScope::kComputeOnly).to_grams();
  const double nlp = suite_mean_speedup(Suite::kNlp, 4) / (e4 / e1);
  const double vision = suite_mean_speedup(Suite::kVision, 4) / (e4 / e1);
  const double candle = suite_mean_speedup(Suite::kCandle, 4) / (e4 / e1);
  EXPECT_NEAR(nlp, 0.88, 0.03);
  EXPECT_NEAR(vision, 0.79, 0.03);
  EXPECT_NEAR(candle, 0.88, 0.03);
  EXPECT_LT(vision, nlp);  // Vision scales worst
}

TEST(Perf, Table6UpgradeImprovements) {
  const NodeConfig p = p100_node(), v = v100_node(), a = a100_node();
  // Paper Table 6, tolerance +/- 1.5 percentage points.
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kNlp, p, v), 44.4, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kVision, p, v), 41.2, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kCandle, p, v), 45.5, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kNlp, p, a), 59.0, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kVision, p, a), 60.2, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kCandle, p, a), 68.3, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kNlp, v, a), 25.6, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kVision, v, a), 35.8, 1.5);
  EXPECT_NEAR(upgrade_improvement_percent(Suite::kCandle, v, a), 44.4, 1.5);
}

TEST(Perf, Table6AverageImprovements) {
  // Average column: 43.4 / 62.5 / 35.9 %.
  const NodeConfig p = p100_node(), v = v100_node(), a = a100_node();
  auto avg = [&](const NodeConfig& from, const NodeConfig& to) {
    double acc = 0;
    for (Suite s : workload::all_suites()) {
      acc += upgrade_improvement_percent(s, from, to);
    }
    return acc / 3.0;
  };
  EXPECT_NEAR(avg(p, v), 43.4, 1.5);
  EXPECT_NEAR(avg(p, a), 62.5, 1.5);
  EXPECT_NEAR(avg(v, a), 35.9, 1.5);
}

TEST(Perf, SpeedupAndTimeRatioAreConsistent) {
  const NodeConfig p = p100_node(), a = a100_node();
  for (Suite s : workload::all_suites()) {
    const double tr = suite_time_ratio(s, p, a);
    EXPECT_GT(tr, 0.0);
    EXPECT_LT(tr, 1.0);  // upgrades always speed things up
    EXPECT_NEAR(upgrade_improvement_percent(s, p, a), 100.0 * (1.0 - tr),
                1e-9);
  }
}

TEST(Perf, RejectsMoreGpusThanNodeHas) {
  const auto& bert = workload::model_by_name("BERT");
  EXPECT_THROW(throughput(bert, fig4_node(2), 3), Error);
  EXPECT_NO_THROW(throughput(bert, fig4_node(2), 2));
}

}  // namespace
}  // namespace hpcarbon::hw
