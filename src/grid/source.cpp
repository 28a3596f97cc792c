#include "grid/source.h"

namespace hpcarbon::grid {

const char* to_string(SourceType t) {
  switch (t) {
    case SourceType::kCoal: return "coal";
    case SourceType::kGas: return "gas";
    case SourceType::kOil: return "oil";
    case SourceType::kNuclear: return "nuclear";
    case SourceType::kHydro: return "hydro";
    case SourceType::kWind: return "wind";
    case SourceType::kSolar: return "solar";
    case SourceType::kBiomass: return "biomass";
    case SourceType::kImports: return "imports";
  }
  return "?";
}

double lifecycle_ci(SourceType t) {
  switch (t) {
    case SourceType::kCoal: return 820.0;
    case SourceType::kGas: return 490.0;
    case SourceType::kOil: return 650.0;
    case SourceType::kNuclear: return 12.0;
    case SourceType::kHydro: return 24.0;
    case SourceType::kWind: return 11.0;
    case SourceType::kSolar: return 41.0;
    case SourceType::kBiomass: return 230.0;
    case SourceType::kImports: return 500.0;
  }
  return 0.0;
}

}  // namespace hpcarbon::grid
