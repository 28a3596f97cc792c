// Catalog tests assert the paper's headline embodied-carbon claims
// (Observations 1-3) hold for the modeled Table 1 parts.
#include "embodied/catalog.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace hpcarbon::embodied {
namespace {

TEST(Catalog, Table1HasNineParts) {
  EXPECT_EQ(table1_parts().size(), 9u);
  EXPECT_EQ(table1_processors().size(), 6u);
  EXPECT_EQ(table1_memory_storage().size(), 3u);
}

TEST(Catalog, LookupDispatch) {
  EXPECT_TRUE(is_processor(PartId::kMi250x));
  EXPECT_TRUE(is_processor(PartId::kEpyc7763));
  EXPECT_FALSE(is_processor(PartId::kDram64GbDdr4));
  EXPECT_NO_THROW(processor(PartId::kA100Pcie40));
  EXPECT_THROW(processor(PartId::kHddExosX16_16Tb), Error);
  EXPECT_THROW(memory(PartId::kA100Pcie40), Error);
  EXPECT_STREQ(display_name(PartId::kMi250x), "AMD MI250X");
  EXPECT_STREQ(display_name(PartId::kSsdNytro3530_3_2Tb), "SSD 3.2TB");
}

TEST(Catalog, PaperEpcConstants) {
  EXPECT_DOUBLE_EQ(memory(PartId::kDram64GbDdr4).epc_g_per_gb, 65.0);
  EXPECT_DOUBLE_EQ(memory(PartId::kSsdNytro3530_3_2Tb).epc_g_per_gb, 6.21);
  EXPECT_DOUBLE_EQ(memory(PartId::kHddExosX16_16Tb).epc_g_per_gb, 1.33);
}

// --- Observation 1 / Fig. 1 -------------------------------------------------

TEST(Catalog, EveryGpuExceedsEveryCpuInEmbodiedCarbon) {
  const std::vector<PartId> gpus = {PartId::kMi250x, PartId::kA100Pcie40,
                                    PartId::kV100Sxm2_32};
  const std::vector<PartId> cpus = {PartId::kEpyc7763, PartId::kEpyc7742,
                                    PartId::kXeonGold6240R};
  for (auto g : gpus) {
    for (auto c : cpus) {
      EXPECT_GT(embodied_of(g).total().to_grams(),
                embodied_of(c).total().to_grams())
          << display_name(g) << " vs " << display_name(c);
    }
  }
}

TEST(Catalog, MaxGpuToCpuRatioIsAbout3p4) {
  // "each GPU devices have higher embodied carbon than the CPU devices by
  //  up to 3.4x" (Fig. 1a).
  double max_ratio = 0;
  for (auto g : {PartId::kMi250x, PartId::kA100Pcie40, PartId::kV100Sxm2_32}) {
    for (auto c :
         {PartId::kEpyc7763, PartId::kEpyc7742, PartId::kXeonGold6240R}) {
      max_ratio = std::max(max_ratio, embodied_of(g).total().to_grams() /
                                          embodied_of(c).total().to_grams());
    }
  }
  EXPECT_NEAR(max_ratio, 3.4, 0.25);
}

TEST(Catalog, Mi250xHasHighestEmbodiedCarbon) {
  const double mi = embodied_of(PartId::kMi250x).total().to_grams();
  for (auto id : table1_parts()) {
    if (id == PartId::kMi250x) continue;
    EXPECT_GT(mi, embodied_of(id).total().to_grams()) << display_name(id);
  }
}

TEST(Catalog, PerTflopsTrendReverses) {
  // Fig. 1b: every CPU has higher embodied carbon per FP64 TFLOPS than any
  // GPU; the MI250X is the best of all.
  double worst_gpu = 0, best_cpu = 1e18;
  for (auto g : {PartId::kMi250x, PartId::kA100Pcie40, PartId::kV100Sxm2_32}) {
    worst_gpu = std::max(worst_gpu, kg_per_tflop_fp64(processor(g)));
  }
  for (auto c :
       {PartId::kEpyc7763, PartId::kEpyc7742, PartId::kXeonGold6240R}) {
    best_cpu = std::min(best_cpu, kg_per_tflop_fp64(processor(c)));
  }
  EXPECT_GT(best_cpu, worst_gpu);
  const double mi = kg_per_tflop_fp64(processor(PartId::kMi250x));
  for (auto id : table1_processors()) {
    if (id == PartId::kMi250x) continue;
    EXPECT_LT(mi, kg_per_tflop_fp64(processor(id)));
  }
}

// --- Observation 2 / Fig. 2 -------------------------------------------------

TEST(Catalog, MemoryStorageComparableToComputeUnits) {
  // Fig. 2a: each DRAM/SSD/HDD device lands in 5-25 kg, comparable to
  // GPU/CPU devices.
  for (auto id : table1_memory_storage()) {
    const double kg = embodied_of(id).total().to_kilograms();
    EXPECT_GE(kg, 5.0) << display_name(id);
    EXPECT_LE(kg, 25.0) << display_name(id);
  }
}

TEST(Catalog, PerBandwidthOrderingHddWorst) {
  // Fig. 2b: HDD >> SSD >> DRAM in kg per GB/s.
  const double dram = kg_per_gbps(memory(PartId::kDram64GbDdr4));
  const double ssd = kg_per_gbps(memory(PartId::kSsdNytro3530_3_2Tb));
  const double hdd = kg_per_gbps(memory(PartId::kHddExosX16_16Tb));
  EXPECT_LT(dram, 1.0);        // negligible
  EXPECT_GT(ssd, 5.0);
  EXPECT_LT(ssd, 20.0);
  EXPECT_GT(hdd, 60.0);
  EXPECT_LT(hdd, 100.0);
  EXPECT_LT(dram, ssd);
  EXPECT_LT(ssd, hdd);
}

// --- Observation 3 / Fig. 3 -------------------------------------------------

TEST(Catalog, PackagingSharesMatchFig3) {
  // Class-aggregate packaging shares: GPU ~15%, CPU ~7%, DRAM ~42%,
  // SSD/HDD ~2%.
  auto class_share = [](std::vector<PartId> ids) {
    double pkg = 0, tot = 0;
    for (auto id : ids) {
      const auto b = embodied_of(id);
      pkg += b.packaging.to_grams();
      tot += b.total().to_grams();
    }
    return 100.0 * pkg / tot;
  };
  EXPECT_NEAR(class_share({PartId::kMi250x, PartId::kA100Pcie40,
                           PartId::kV100Sxm2_32}),
              15.0, 2.5);
  EXPECT_NEAR(class_share({PartId::kEpyc7763, PartId::kEpyc7742,
                           PartId::kXeonGold6240R}),
              7.0, 1.5);
  EXPECT_NEAR(class_share({PartId::kDram64GbDdr4}), 42.0, 1.5);
  EXPECT_NEAR(class_share({PartId::kSsdNytro3530_3_2Tb}), 2.0, 0.5);
  EXPECT_NEAR(class_share({PartId::kHddExosX16_16Tb}), 2.0, 0.5);
}

TEST(Catalog, ManufacturingDominatesExceptDram) {
  for (auto id : table1_parts()) {
    const auto b = embodied_of(id);
    if (id == PartId::kDram64GbDdr4) {
      EXPECT_GT(b.packaging_share(), 0.40);
      EXPECT_LT(b.packaging_share(), 0.45);
    } else {
      EXPECT_LT(b.packaging_share(), 0.20) << display_name(id);
    }
  }
}

// --- Table 5 extras ---------------------------------------------------------

TEST(Catalog, GenerationalOrderingOfGpus) {
  // Newer, denser processes carry more embodied carbon.
  const double p100 = embodied_of(PartId::kP100Pcie16).total().to_grams();
  const double v100 = embodied_of(PartId::kV100Sxm2_32).total().to_grams();
  const double a100 = embodied_of(PartId::kA100Pcie40).total().to_grams();
  EXPECT_LT(p100, v100);
  EXPECT_LT(v100, a100);
}

TEST(Catalog, SxmVariantSharesDieButDrawsMorePower) {
  const auto& pcie = processor(PartId::kA100Pcie40);
  const auto& sxm = processor(PartId::kA100Sxm4_40);
  ASSERT_EQ(pcie.dies.size(), sxm.dies.size());
  EXPECT_DOUBLE_EQ(pcie.dies.at(0).area_mm2, sxm.dies.at(0).area_mm2);
  EXPECT_GT(sxm.tdp_watts, pcie.tdp_watts);
}

TEST(Catalog, AllPartsHavePositivePowerAndPerf) {
  for (auto id : table1_parts()) {
    if (is_processor(id)) {
      const auto& p = processor(id);
      EXPECT_GT(p.fp64_tflops, 0.0) << p.name;
      EXPECT_GT(p.tdp_watts, p.idle_watts) << p.name;
      EXPECT_GT(p.idle_watts, 0.0) << p.name;
    } else {
      const auto& m = memory(id);
      EXPECT_GT(m.bandwidth_gb_per_s, 0.0) << m.name;
      EXPECT_GE(m.active_watts, m.idle_watts) << m.name;
    }
  }
}

}  // namespace
}  // namespace hpcarbon::embodied
