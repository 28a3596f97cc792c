#include "hw/node.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::hw {
namespace {

TEST(Node, Table5Presets) {
  const NodeConfig p = p100_node();
  EXPECT_EQ(p.gpu, embodied::PartId::kP100Pcie16);
  EXPECT_EQ(p.gpu_count, 4);
  EXPECT_EQ(p.cpu, embodied::PartId::kXeonE5_2680);
  EXPECT_EQ(p.cpu_count, 2);
  EXPECT_EQ(p.arch, GpuArch::kPascal);

  const NodeConfig v = v100_node();
  EXPECT_EQ(v.gpu, embodied::PartId::kV100Sxm2_32);
  EXPECT_EQ(v.cpu, embodied::PartId::kXeonGold6240R);
  EXPECT_EQ(v.cpu_count, 2);

  const NodeConfig a = a100_node();
  EXPECT_EQ(a.gpu, embodied::PartId::kA100Pcie40);
  EXPECT_EQ(a.cpu, embodied::PartId::kEpyc7542);
  EXPECT_EQ(a.cpu_count, 4);  // Table 5: 4x EPYC 7542
}

TEST(Node, DramModuleCount) {
  NodeConfig n = v100_node();
  n.dram_gb = 384;
  EXPECT_EQ(n.dram_module_count(), 6);  // 64 GB modules
  n.dram_gb = 100;
  EXPECT_EQ(n.dram_module_count(), 2);  // ceil
}

TEST(Node, ComputeScopeEmbodiedSumsCpusAndGpus) {
  const NodeConfig v = v100_node();
  const double expected =
      4 * embodied::embodied_of(embodied::PartId::kV100Sxm2_32)
              .total()
              .to_grams() +
      2 * embodied::embodied_of(embodied::PartId::kXeonGold6240R)
              .total()
              .to_grams();
  EXPECT_NEAR(node_embodied(v, EmbodiedScope::kComputeOnly).to_grams(),
              expected, 1e-6);
}

TEST(Node, FullScopeAddsDramAndSsd) {
  const NodeConfig v = v100_node();
  const double compute =
      node_embodied(v, EmbodiedScope::kComputeOnly).to_grams();
  const double full = node_embodied(v, EmbodiedScope::kFullNode).to_grams();
  const double dimm =
      embodied::embodied_of(embodied::PartId::kDram64GbDdr4).total().to_grams();
  const double ssd = embodied::embodied_of(embodied::PartId::kSsdNytro3530_3_2Tb)
                         .total()
                         .to_grams();
  EXPECT_NEAR(full - compute, 6 * dimm + ssd, 1e-6);
}

TEST(Node, NewerGenerationsCarryMoreEmbodiedCarbon) {
  const double p = node_embodied(p100_node()).to_grams();
  const double v = node_embodied(v100_node()).to_grams();
  const double a = node_embodied(a100_node()).to_grams();
  EXPECT_LT(p, v);
  EXPECT_LT(v, a);
}

TEST(Node, Fig4NodeScalesLinearlyInGpus) {
  // RQ 3: "the embodied carbon footprint increase is proportional to the
  // number of GPUs added".
  const double e1 =
      node_embodied(fig4_node(1), EmbodiedScope::kComputeOnly).to_grams();
  const double e2 =
      node_embodied(fig4_node(2), EmbodiedScope::kComputeOnly).to_grams();
  const double e4 =
      node_embodied(fig4_node(4), EmbodiedScope::kComputeOnly).to_grams();
  const double gpu =
      embodied::embodied_of(embodied::PartId::kV100Sxm2_32).total().to_grams();
  EXPECT_NEAR(e2 - e1, gpu, 1e-6);
  EXPECT_NEAR(e4 - e2, 2 * gpu, 1e-6);
}

TEST(Node, Fig4EmbodiedRatiosMatchPaper) {
  // 2 GPUs: +30-40%; 4 GPUs: ~2.2x (both normalized to the 1-GPU node).
  const double e1 =
      node_embodied(fig4_node(1), EmbodiedScope::kComputeOnly).to_grams();
  const double r2 =
      node_embodied(fig4_node(2), EmbodiedScope::kComputeOnly).to_grams() / e1;
  const double r4 =
      node_embodied(fig4_node(4), EmbodiedScope::kComputeOnly).to_grams() / e1;
  EXPECT_GT(r2, 1.30);
  EXPECT_LT(r2, 1.45);
  EXPECT_NEAR(r4, 2.24, 0.1);
}

TEST(Node, Fig4NodeRejectsBadGpuCounts) {
  EXPECT_THROW(fig4_node(0), Error);
  EXPECT_THROW(fig4_node(9), Error);
  EXPECT_NO_THROW(fig4_node(8));
}

TEST(Node, EmbodiedRequiresValidCounts) {
  NodeConfig n = v100_node();
  n.cpu_count = 0;
  EXPECT_THROW(node_embodied(n), Error);
}

}  // namespace
}  // namespace hpcarbon::hw
