#include "grid/presets.h"

#include "core/error.h"

namespace hpcarbon::grid {

// Source list order is dispatch order: must-run nuclear and must-take
// renewables first, then the dispatchable merit order (hydro, gas, coal,
// oil). Shortfall becomes imports.

RegionSpec kansai() {
  RegionSpec r;
  r.code = "KN";
  r.name = "Kansai";
  r.country = "Japan";
  r.area = "Kansai Region";
  r.tz = kJst;
  r.demand_diurnal_amp = 0.12;
  r.demand_peak_hour = 14;
  r.demand_seasonal_amp = 0.08;
  r.demand_peak_day = 210;  // summer cooling peak
  r.demand_noise = 0.02;
  r.seed = 101;
  r.sources = {
      {SourceType::kNuclear, 0.20, 0.88, 0, 0.95, 0, 0},
      {SourceType::kSolar, 0.14, 0.9, 0.5, 0.90, 0, 0},
      {SourceType::kWind, 0.02, 0.30, 0.35, 0.96, 0, 0},
      {SourceType::kHydro, 0.09, 0.65, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.75, 0.95, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.30, 0.90, 0, 0.95, 0, 0},
      {SourceType::kOil, 0.10, 0.85, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec tokyo() {
  RegionSpec r;
  r.code = "TK";
  r.name = "Tokyo";
  r.country = "Japan";
  r.area = "Tokyo Region";
  r.tz = kJst;
  r.demand_diurnal_amp = 0.13;
  r.demand_peak_hour = 14;
  r.demand_seasonal_amp = 0.09;
  r.demand_peak_day = 210;
  r.demand_noise = 0.02;
  r.seed = 102;
  // LNG-dominated with a meaningful coal share and no nuclear in 2021:
  // high, steady carbon intensity (lowest CoV of the seven).
  r.sources = {
      {SourceType::kSolar, 0.16, 0.9, 0.5, 0.90, 0, 0},
      {SourceType::kHydro, 0.04, 0.60, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.80, 0.95, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.30, 0.90, 0, 0.95, 0, 0},
      {SourceType::kOil, 0.12, 0.85, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec eso() {
  RegionSpec r;
  r.code = "ESO";
  r.name = "Electricity System Operator";
  r.country = "United Kingdom";
  r.area = "Great Britain";
  r.tz = kGmt;
  r.demand_diurnal_amp = 0.18;
  r.demand_peak_hour = 18;
  r.demand_seasonal_amp = 0.12;
  r.demand_peak_day = 15;  // winter heating peak
  r.demand_noise = 0.02;
  r.seed = 103;
  // Wind-dominated fleet: lowest median CI of the seven but the largest
  // weather-driven swings (highest CoV) — the paper's key ESO finding.
  r.sources = {
      {SourceType::kNuclear, 0.15, 0.85, 0, 0.95, 0, 0},
      {SourceType::kWind, 1.00, 0.40, 0.14, 0.975, 0.15, 2},
      {SourceType::kSolar, 0.22, 0.85, 0.5, 0.90, 0, 0},
      {SourceType::kHydro, 0.02, 0.60, 0, 0.95, 0, 0},
      {SourceType::kBiomass, 0.07, 0.75, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.95, 0.95, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.03, 0.80, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec ciso() {
  RegionSpec r;
  r.code = "CISO";
  r.name = "California Independent System Operator";
  r.country = "United States";
  r.area = "California";
  r.tz = kPst;
  r.demand_diurnal_amp = 0.16;
  r.demand_peak_hour = 18;
  r.demand_seasonal_amp = 0.08;
  r.demand_peak_day = 210;
  r.demand_noise = 0.02;
  r.seed = 104;
  // Solar-dominated: deep midday CI dip (duck curve), gas-heavy evenings.
  // Low median, high CoV — second "greenest" region of Fig. 6.
  r.sources = {
      {SourceType::kNuclear, 0.08, 0.92, 0, 0.95, 0, 0},
      {SourceType::kSolar, 0.60, 0.92, 0.35, 0.90, 0, 0},
      {SourceType::kWind, 0.32, 0.32, 0.30, 0.96, 0.2, 22},
      // Includes firm Pacific-Northwest hydro imports, the big overnight
      // clean block in CAISO's real mix.
      {SourceType::kHydro, 0.36, 0.62, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.95, 0.95, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec pjm() {
  RegionSpec r;
  r.code = "PJM";
  r.name = "Pennsylvania-New Jersey-Maryland Interconnection";
  r.country = "United States";
  r.area = "Mid-Atlantic US";
  r.tz = kEst;
  r.demand_diurnal_amp = 0.15;
  r.demand_peak_hour = 17;
  r.demand_seasonal_amp = 0.07;
  r.demand_peak_day = 200;
  r.demand_noise = 0.02;
  r.seed = 105;
  // Large nuclear baseload with gas/coal marginal units: mid-pack median,
  // modest CoV.
  r.sources = {
      {SourceType::kNuclear, 0.34, 0.92, 0, 0.95, 0, 0},
      {SourceType::kWind, 0.04, 0.32, 0.4, 0.96, 0.1, 2},
      {SourceType::kSolar, 0.03, 0.9, 0.5, 0.90, 0, 0},
      {SourceType::kHydro, 0.02, 0.5, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.50, 0.95, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.48, 0.90, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec miso() {
  RegionSpec r;
  r.code = "MISO";
  r.name = "Midcontinent Independent System Operator";
  r.country = "United States, Canada";
  r.area = "Midwest US, Manitoba";
  r.tz = kCst;
  r.demand_diurnal_amp = 0.14;
  r.demand_peak_hour = 17;
  r.demand_seasonal_amp = 0.08;
  r.demand_peak_day = 200;
  r.demand_noise = 0.02;
  r.seed = 106;
  // Coal-heavy: highest-or-close median with small relative variation.
  r.sources = {
      {SourceType::kNuclear, 0.14, 0.92, 0, 0.95, 0, 0},
      {SourceType::kWind, 0.42, 0.34, 0.45, 0.96, 0.15, 2},
      {SourceType::kHydro, 0.02, 0.6, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.40, 0.92, 0, 0.95, 0, 0},
      {SourceType::kGas, 0.45, 0.95, 0, 0.95, 0, 0},
  };
  return r;
}

RegionSpec ercot() {
  RegionSpec r;
  r.code = "ERCOT";
  r.name = "Electric Reliability Council of Texas";
  r.country = "United States";
  r.area = "Texas";
  r.tz = kCst;
  r.demand_diurnal_amp = 0.18;
  r.demand_peak_hour = 17;
  r.demand_seasonal_amp = 0.10;
  r.demand_peak_day = 210;  // summer cooling
  r.demand_noise = 0.025;
  r.seed = 107;
  // Substantial nocturnal wind over a gas/coal thermal fleet: intermediate
  // median and CoV between the green coastal ISOs and the thermal Midwest.
  r.sources = {
      {SourceType::kNuclear, 0.09, 0.92, 0, 0.95, 0, 0},
      {SourceType::kWind, 0.45, 0.36, 0.50, 0.97, 0.30, 3},
      {SourceType::kSolar, 0.12, 0.9, 0.45, 0.90, 0, 0},
      {SourceType::kGas, 0.85, 0.95, 0, 0.95, 0, 0},
      {SourceType::kCoal, 0.40, 0.90, 0, 0.95, 0, 0},
  };
  return r;
}

std::vector<RegionSpec> all_regions() {
  return {kansai(), tokyo(), eso(), ciso(), pjm(), miso(), ercot()};
}

std::vector<RegionSpec> fig7_regions() { return {eso(), ciso(), ercot()}; }

std::optional<RegionSpec> find_region(const std::string& code) {
  for (const auto& spec : all_regions()) {
    if (spec.code == code) return spec;
  }
  return std::nullopt;
}

RegionSpec require_region(const std::string& code) {
  if (auto spec = find_region(code)) return *spec;
  std::string known;
  for (const auto& spec : all_regions()) {
    known += (known.empty() ? "" : ", ") + spec.code;
  }
  throw Error("unknown region code '" + code + "' (known: " + known + ")");
}

std::vector<std::string> codes_of(const std::vector<RegionSpec>& specs) {
  std::vector<std::string> codes;
  codes.reserve(specs.size());
  for (const auto& spec : specs) codes.push_back(spec.code);
  return codes;
}

}  // namespace hpcarbon::grid
