#include "embodied/models.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::embodied {
namespace {

ProcessorPart simple_gpu() {
  ProcessorPart p;
  p.name = "test-gpu";
  p.cls = PartClass::kGpu;
  p.dies = {{100.0, ProcessNode::nm7, 1}};  // 1 cm^2 at 1600 g/cm^2
  p.ic_count = 10;
  p.fp64_tflops = 10.0;
  return p;
}

MemoryPart simple_dram() {
  MemoryPart m;
  m.name = "test-dram";
  m.cls = PartClass::kDram;
  m.capacity_gb = 64;
  m.epc_g_per_gb = 65.0;
  m.ic_count = 20;
  m.bandwidth_gb_per_s = 25.6;
  return m;
}

MemoryPart simple_ssd() {
  MemoryPart m;
  m.name = "test-ssd";
  m.cls = PartClass::kSsd;
  m.capacity_gb = 3200;
  m.epc_g_per_gb = 6.21;
  m.bandwidth_gb_per_s = 2.1;
  return m;
}

TEST(EmbodiedModels, Eq3ProcessorManufacturing) {
  const Mass m = processor_manufacturing(simple_gpu());
  EXPECT_NEAR(m.to_grams(), 1600.0 / 0.875, 1e-9);
}

TEST(EmbodiedModels, Eq3SumsMultipleDies) {
  ProcessorPart p = simple_gpu();
  p.dies = {{100.0, ProcessNode::nm7, 2}, {50.0, ProcessNode::nm12, 1}};
  const double expected = 2 * 1600.0 / 0.875 + 0.5 * 1200.0 / 0.875;
  EXPECT_NEAR(processor_manufacturing(p).to_grams(), expected, 1e-9);
}

TEST(EmbodiedModels, Eq3RequiresDies) {
  ProcessorPart p = simple_gpu();
  p.dies.clear();
  EXPECT_THROW(processor_manufacturing(p), Error);
}

TEST(EmbodiedModels, Eq4CapacityManufacturing) {
  // Paper constants: DRAM 65 g/GB * 64 GB = 4160 g.
  EXPECT_NEAR(capacity_manufacturing(simple_dram()).to_grams(), 4160.0, 1e-9);
  // SSD: 6.21 g/GB * 3200 GB = 19872 g.
  EXPECT_NEAR(capacity_manufacturing(simple_ssd()).to_grams(), 19872.0, 1e-9);
}

TEST(EmbodiedModels, Eq4RejectsInvalid) {
  MemoryPart m = simple_dram();
  m.capacity_gb = 0;
  EXPECT_THROW(capacity_manufacturing(m), Error);
  m = simple_dram();
  m.epc_g_per_gb = -1;
  EXPECT_THROW(capacity_manufacturing(m), Error);
}

TEST(EmbodiedModels, Eq5Packaging150gPerIc) {
  EXPECT_DOUBLE_EQ(ic_packaging(0).to_grams(), 0.0);
  EXPECT_DOUBLE_EQ(ic_packaging(1).to_grams(), 150.0);
  EXPECT_DOUBLE_EQ(ic_packaging(20).to_grams(), 3000.0);
  EXPECT_THROW(ic_packaging(-1), Error);
}

TEST(EmbodiedModels, Eq2ProcessorBreakdown) {
  const EmbodiedBreakdown b = embodied(simple_gpu());
  EXPECT_NEAR(b.manufacturing.to_grams(), 1600.0 / 0.875, 1e-9);
  EXPECT_DOUBLE_EQ(b.packaging.to_grams(), 1500.0);
  EXPECT_NEAR(b.total().to_grams(), 1600.0 / 0.875 + 1500.0, 1e-9);
  EXPECT_NEAR(b.packaging_share(),
              1500.0 / (1600.0 / 0.875 + 1500.0), 1e-12);
}

TEST(EmbodiedModels, Eq2DramUsesIcPackaging) {
  const EmbodiedBreakdown b = embodied(simple_dram());
  EXPECT_DOUBLE_EQ(b.packaging.to_grams(), 3000.0);
  // 3000 / 7160 = 41.9% — the paper's Fig. 3 DRAM ring (42%).
  EXPECT_NEAR(b.packaging_share(), 0.419, 0.002);
}

TEST(EmbodiedModels, Eq2StorageUsesRatioPackaging) {
  const EmbodiedBreakdown b = embodied(simple_ssd());
  EXPECT_NEAR(b.packaging.to_grams(), 19872.0 * kStoragePackagingRatio, 1e-6);
  // ~2% — the paper's Fig. 3 SSD/HDD rings.
  EXPECT_NEAR(b.packaging_share(), 0.02, 0.003);
}

TEST(EmbodiedModels, StorageCustomRatioOverridesDefault) {
  MemoryPart m = simple_ssd();
  m.packaging_to_manufacturing = 0.10;
  const EmbodiedBreakdown b = embodied(m);
  EXPECT_NEAR(b.packaging.to_grams(), 1987.2, 1e-6);
}

TEST(EmbodiedModels, NormalizedMetrics) {
  const ProcessorPart g = simple_gpu();
  const double kg_tf = kg_per_tflop_fp64(g);
  EXPECT_NEAR(kg_tf, embodied(g).total().to_kilograms() / 10.0, 1e-12);
  const MemoryPart d = simple_dram();
  EXPECT_NEAR(kg_per_gbps(d), embodied(d).total().to_kilograms() / 25.6,
              1e-12);
  ProcessorPart bad = simple_gpu();
  bad.fp64_tflops = 0;
  EXPECT_THROW(kg_per_tflop_fp64(bad), Error);
}

TEST(EmbodiedModels, ZeroTotalHasZeroShare) {
  EmbodiedBreakdown b;
  EXPECT_DOUBLE_EQ(b.packaging_share(), 0.0);
}

}  // namespace
}  // namespace hpcarbon::embodied
