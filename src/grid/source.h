// Electricity generation sources and their lifecycle carbon intensities.
//
// Carbon intensity of a grid hour is the generation-weighted mean of the
// per-source lifecycle intensities (gCO2/kWh). Values follow the IPCC
// AR5/2014 lifecycle medians, the same family of constants behind
// Electricity Maps — and consistent with the paper's framing (renewables
// < 50, coal > 800 gCO2/kWh).
#pragma once

#include <string>

namespace hpcarbon::grid {

enum class SourceType {
  kCoal,
  kGas,
  kOil,
  kNuclear,
  kHydro,
  kWind,
  kSolar,
  kBiomass,
  kImports,  // unspecified out-of-region mix
};

const char* to_string(SourceType t);

/// Lifecycle carbon intensity in gCO2/kWh.
double lifecycle_ci(SourceType t);

}  // namespace hpcarbon::grid
