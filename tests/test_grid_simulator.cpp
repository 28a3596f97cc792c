#include "grid/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>

#include "core/error.h"
#include "core/stats.h"
#include "grid/presets.h"

namespace hpcarbon::grid {
namespace {

RegionSpec gas_only_region() {
  RegionSpec r;
  r.code = "GAS";
  r.tz = kUtc;
  r.demand_diurnal_amp = 0;
  r.demand_seasonal_amp = 0;
  r.demand_noise = 0;
  r.sources = {{SourceType::kGas, 2.0, 1.0, 0, 0.95, 0, 0}};
  return r;
}

TEST(GridSimulator, GasOnlyGridHasGasIntensity) {
  const auto trace = GridSimulator(gas_only_region()).run();
  for (double v : trace.values()) {
    EXPECT_NEAR(v, lifecycle_ci(SourceType::kGas), 1e-9);
  }
}

TEST(GridSimulator, ShortfallFallsBackToImports) {
  RegionSpec r = gas_only_region();
  r.sources = {{SourceType::kWind, 0.0, 0.0, 0, 0.95, 0, 0},
               {SourceType::kGas, 0.5, 1.0, 0, 0.95, 0, 0}};
  const auto detail = GridSimulator(r).run_detailed();
  // Demand 1.0, gas covers only 0.5 -> half imports.
  EXPECT_NEAR(detail[0].imports, 0.5, 1e-9);
  EXPECT_NEAR(detail[0].ci_g_per_kwh,
              0.5 * lifecycle_ci(SourceType::kGas) +
                  0.5 * lifecycle_ci(SourceType::kImports),
              1e-9);
}

TEST(GridSimulator, IntermittentRenewablesAreCurtailedAtDemand) {
  RegionSpec r = gas_only_region();
  r.sources = {{SourceType::kWind, 5.0, 0.9, 0.0, 0.95, 0, 0}};
  const auto detail = GridSimulator(r).run_detailed();
  for (const auto& h : detail) {
    EXPECT_LE(h.generation[0], h.demand + 1e-9);
    EXPECT_GE(h.imports, 0.0);
  }
}

TEST(GridSimulator, TraceIsDeterministicForSeed) {
  const auto a = GridSimulator(eso()).run();
  const auto b = GridSimulator(eso()).run();
  EXPECT_EQ(a.values(), b.values());
}

TEST(GridSimulator, DifferentSeedsGiveDifferentWeather) {
  RegionSpec a = eso();
  RegionSpec b = eso();
  b.seed = a.seed + 1;
  const auto ta = GridSimulator(a).run();
  const auto tb = GridSimulator(b).run();
  EXPECT_NE(ta.values(), tb.values());
  // But the distribution is stable: medians within a few percent.
  EXPECT_NEAR(stats::median(ta.values()) / stats::median(tb.values()), 1.0,
              0.15);
}

TEST(GridSimulator, SolarGeneratesOnlyInDaylight) {
  RegionSpec r = gas_only_region();
  r.sources = {{SourceType::kSolar, 1.0, 0.9, 0.0, 0.90, 0, 0},
               {SourceType::kGas, 2.0, 1.0, 0, 0.95, 0, 0}};
  const auto detail = GridSimulator(r).run_detailed();
  for (int d = 0; d < 10; ++d) {
    // Midnight: no solar.
    EXPECT_DOUBLE_EQ(detail[static_cast<size_t>(d * 24)].generation[0], 0.0);
    // Noon: some solar.
    EXPECT_GT(detail[static_cast<size_t>(d * 24 + 12)].generation[0], 0.0);
  }
}

TEST(GridSimulator, AnnualMixSumsToOne) {
  const auto mix = GridSimulator(ciso()).annual_mix();
  double total = 0;
  for (double m : mix) total += m;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (double m : mix) EXPECT_GE(m, 0.0);
}

TEST(GridSimulator, DemandFollowsDiurnalShape) {
  RegionSpec r = gas_only_region();
  r.demand_diurnal_amp = 0.2;
  r.demand_peak_hour = 18;
  const auto detail = GridSimulator(r).run_detailed();
  // Hour 18 demand > hour 6 demand on day 0 (no noise configured).
  EXPECT_GT(detail[18].demand, detail[6].demand);
  EXPECT_NEAR(detail[18].demand, 1.2, 1e-6);
  EXPECT_NEAR(detail[6].demand, 0.8, 1e-6);
}

TEST(GridSimulator, RejectsDegenerateSpecs) {
  RegionSpec r = gas_only_region();
  r.sources.clear();
  EXPECT_THROW(GridSimulator{r}, Error);
  r = gas_only_region();
  r.sources[0].capacity = -1;
  EXPECT_THROW(GridSimulator{r}, Error);
  r = gas_only_region();
  r.sources[0].capacity_factor = 1.5;
  EXPECT_THROW(GridSimulator{r}, Error);
  r = gas_only_region();
  r.sources[0].capacity = 0;
  EXPECT_THROW(GridSimulator{r}, Error);
}

TEST(GridSimulator, ParallelGenerationMatchesSerial) {
  const auto specs = fig7_regions();
  const auto parallel = generate_traces(specs);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto serial = GridSimulator(specs[i]).run();
    EXPECT_EQ(parallel[i].values(), serial.values()) << specs[i].code;
  }
}

/// Word-wise FNV-1a over the values' IEEE-754 bit patterns: one ulp
/// anywhere in a trace changes it, which rounded goldens can hide.
std::uint64_t bit_digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3;
  }
  return h;
}

// Every preset's year, bit for bit, as the hour-by-hour simulator that
// built a DispatchHour per hour and recomputed each cosine every hour
// produced it.
TEST(GridSimulator, PresetTracesKeepTheirBitPatterns) {
  struct Pinned {
    const char* code;
    std::uint64_t digest;
  };
  constexpr Pinned kPinned[] = {
      {"KN", 0x7aec5973f6d30d9a},   {"TK", 0xa78c4e58de5dc0d8},
      {"ESO", 0xcda2d3f86fcb9f1e},  {"CISO", 0x6c5d00cf760db7af},
      {"PJM", 0x92c90a87a0696fad},  {"MISO", 0xe34799de7ab4b9dd},
      {"ERCOT", 0x331ccc70cd552d63},
  };
  const auto specs = all_regions();
  ASSERT_EQ(specs.size(), std::size(kPinned));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto trace = GridSimulator(specs[i]).run();
    ASSERT_EQ(trace.region_code(), kPinned[i].code);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(kHoursPerYear));
    EXPECT_EQ(bit_digest(trace.values()), kPinned[i].digest)
        << specs[i].code << " digest 0x" << std::hex
        << bit_digest(trace.values());
  }
}

// run(), run_detailed() and annual_mix() are three views of one pass: the
// trace is the detail's CI column, and the mix is the detail's energy
// summed in hour order and divided by the summed demand, bit for bit.
TEST(GridSimulator, TraceAndMixAreTheDetailsColumns) {
  for (const auto& spec : all_regions()) {
    const GridSimulator sim(spec);
    const auto detail = sim.run_detailed();
    const auto trace = sim.run();
    ASSERT_EQ(trace.size(), detail.size()) << spec.code;
    for (std::size_t h = 0; h < detail.size(); ++h) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(trace.values()[h]),
                std::bit_cast<std::uint64_t>(detail[h].ci_g_per_kwh))
          << spec.code << " hour " << h;
    }
    std::vector<double> energy(spec.sources.size() + 1, 0.0);
    double total = 0;
    for (const auto& hour : detail) {
      ASSERT_EQ(hour.generation.size(), spec.sources.size());
      for (std::size_t i = 0; i < hour.generation.size(); ++i) {
        energy[i] += hour.generation[i];
      }
      energy.back() += hour.imports;
      total += hour.demand;
    }
    const auto mix = sim.annual_mix();
    ASSERT_EQ(mix.size(), energy.size()) << spec.code;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mix[i]),
                std::bit_cast<std::uint64_t>(energy[i] / total))
          << spec.code << " source " << i;
    }
  }
}

TEST(SourceTypes, LifecycleIntensities) {
  // The paper's framing: renewables < 50, coal > 800 gCO2/kWh.
  EXPECT_LT(lifecycle_ci(SourceType::kWind), 50.0);
  EXPECT_LT(lifecycle_ci(SourceType::kSolar), 50.0);
  EXPECT_LT(lifecycle_ci(SourceType::kHydro), 50.0);
  EXPECT_LT(lifecycle_ci(SourceType::kNuclear), 50.0);
  EXPECT_GT(lifecycle_ci(SourceType::kCoal), 800.0);
}

}  // namespace
}  // namespace hpcarbon::grid
