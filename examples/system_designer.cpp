// System designer: the RFP workflow the paper's Observation 2 implication
// recommends — compare candidate system designs by embodied carbon, not
// just peak FLOPS.
//
// Two hypothetical 100-node procurement options are compared:
//   Design A "FLOPS-first": MI250X-dense nodes, HDD capacity tier.
//   Design B "balanced":    A100 nodes, more DRAM, all-flash storage.
//
// Usage: hpcarbon example system-designer
#include <iostream>

#include "core/table.h"
#include "embodied/report.h"
#include "lifecycle/inventory.h"

#include "cli/registry.h"

using namespace hpcarbon;
using embodied::PartClass;
using embodied::PartId;

namespace {

lifecycle::SystemInventory design_a() {
  lifecycle::SystemInventory s;
  s.name = "Design A (FLOPS-first)";
  const double nodes = 100;
  s.components = {
      {PartId::kMi250x, nodes * 8},           // dense GPU blades
      {PartId::kEpyc7763, nodes * 1},
      {PartId::kDram64GbDdr4, nodes * 8},     // 512 GB/node
      {PartId::kSsdNytro3530_3_2Tb, 200},     // metadata flash
      {PartId::kHddExosX16_16Tb, 2500},       // 40 PB capacity tier
  };
  return s;
}

lifecycle::SystemInventory design_b() {
  lifecycle::SystemInventory s;
  s.name = "Design B (balanced)";
  const double nodes = 100;
  s.components = {
      {PartId::kA100Sxm4_40, nodes * 4},
      {PartId::kEpyc7763, nodes * 2},
      {PartId::kDram64GbDdr4, nodes * 16},    // 1 TB/node
      {PartId::kSsdNytro3530_3_2Tb, 3200},    // ~10 PB all-flash
  };
  return s;
}

double peak_fp64_pflops(const lifecycle::SystemInventory& s) {
  double tf = 0;
  for (const auto& c : s.components) {
    if (embodied::is_processor(c.part)) {
      tf += embodied::processor(c.part).fp64_tflops * c.count;
    }
  }
  return tf / 1000.0;
}

}  // namespace

static int tool_main() {
  std::cout << banner("RFP embodied-carbon comparison");
  TextTable t({"Metric", "Design A (FLOPS-first)", "Design B (balanced)"});

  const auto a = design_a();
  const auto b = design_b();
  const auto ba = lifecycle::class_breakdown(a);
  const auto bb = lifecycle::class_breakdown(b);

  t.add_row({"peak FP64 (PFLOPS)", TextTable::num(peak_fp64_pflops(a), 1),
             TextTable::num(peak_fp64_pflops(b), 1)});
  t.add_row({"embodied total (t CO2e)", TextTable::num(ba.total().to_tonnes(), 1),
             TextTable::num(bb.total().to_tonnes(), 1)});
  t.add_row({"embodied per PFLOPS (t)",
             TextTable::num(ba.total().to_tonnes() / peak_fp64_pflops(a), 1),
             TextTable::num(bb.total().to_tonnes() / peak_fp64_pflops(b), 1)});
  for (auto cls : {PartClass::kGpu, PartClass::kCpu, PartClass::kDram,
                   PartClass::kSsd, PartClass::kHdd}) {
    t.add_row({std::string(to_string(cls)) + " share %",
               TextTable::num(ba.share_percent(cls), 1),
               TextTable::num(bb.share_percent(cls), 1)});
  }
  t.add_row({"memory+storage share %",
             TextTable::num(ba.memory_storage_share_percent(), 1),
             TextTable::num(bb.memory_storage_share_percent(), 1)});
  std::cout << t.to_string();

  std::cout << "\nTakeaway: Design A wins peak FLOPS, but its carbon is "
               "GPU-dominated and its HDD tier alone embodies "
            << to_string(ba.by_class[static_cast<size_t>(PartClass::kHdd)])
            << ".\nPerformance benchmarking alone is not sufficient — ask "
               "vendors for embodied-carbon specifications in the RFP.\n\n";

  // Full per-component RFP annex (one node's worth of Design B) with
  // Monte-Carlo confidence bounds — the disclosure format the paper's
  // implication asks vendors to provide.
  embodied::RfpReportOptions opts;
  opts.title = "Design B per-node disclosure";
  opts.monte_carlo_samples = 2048;
  std::cout << embodied::rfp_report(
      {{PartId::kA100Sxm4_40, 4},
       {PartId::kEpyc7763, 2},
       {PartId::kDram64GbDdr4, 16},
       {PartId::kSsdNytro3530_3_2Tb, 1}},
      opts);
  return 0;
}

HPCARBON_TOOL("system-designer", ToolKind::kExample,
              "Compare candidate system designs by embodied carbon")
