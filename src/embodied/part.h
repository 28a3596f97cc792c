// Hardware part descriptions: the inputs of the embodied-carbon models.
//
// The paper models three families (Sec. 2.1):
//  * processors (CPU/GPU) — vendor-generic: per-die lithography area (Eq. 3)
//    plus per-IC packaging (Eq. 5);
//  * memory (DRAM) — vendor-specific: gCO2 per GB (Eq. 4) plus per-IC
//    packaging;
//  * storage (SSD/HDD) — gCO2 per GB (Eq. 4); packaging estimated via a
//    vendor-reported packaging-to-manufacturing ratio because counting ICs
//    is "non-trivial for storage components".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/units.h"
#include "embodied/process_node.h"

namespace hpcarbon::embodied {

enum class PartClass { kGpu, kCpu, kDram, kSsd, kHdd };
const char* to_string(PartClass c);

/// One silicon die inside a processor package (chiplet designs list several).
struct Die {
  double area_mm2 = 0;
  ProcessNode node = ProcessNode::nm7;
  int count = 1;  // identical dies (e.g. 8x Zen3 CCD)
};

/// CPU or GPU. Performance/power fields feed the normalized plots (Fig. 1b)
/// and the operational models; carbon fields feed Eq. 3/5.
struct ProcessorPart {
  std::string name;        // e.g. "NVIDIA A100"
  std::string part_name;   // e.g. "NVIDIA A100 PCIe 40GB"
  std::string vendor;
  std::string release;     // "May 2020"
  PartClass cls = PartClass::kGpu;

  std::vector<Die> dies;
  int ic_count = 1;        // packaged ICs on the board/module (Eq. 5)
  double yield = kDefaultYield;

  double fp64_tflops = 0;  // theoretical peak, the paper's normalizer
  double fp32_tflops = 0;
  double tdp_watts = 0;
  double idle_watts = 0;
};

/// DRAM module / SSD / HDD. EPC is the vendor-sustainability-report-derived
/// "emission per capacity" in gCO2/GB; bandwidth feeds Fig. 2(b).
struct MemoryPart {
  std::string name;
  std::string part_name;
  std::string vendor;
  std::string release;
  PartClass cls = PartClass::kDram;

  double capacity_gb = 0;
  double epc_g_per_gb = 0;
  double bandwidth_gb_per_s = 0;

  // Packaging: DRAM counts ICs (Eq. 5); storage uses the ratio.
  int ic_count = 0;                                  // used when cls==kDram
  std::optional<double> packaging_to_manufacturing;  // used for SSD/HDD

  double active_watts = 0;
  double idle_watts = 0;
};

}  // namespace hpcarbon::embodied
