// Region presets: the seven independent system operators of Table 3.
//
//   Kansai (KN)  — Japan, Kansai region
//   Tokyo (TK)   — Japan, Tokyo region
//   ESO          — United Kingdom, Great Britain
//   CISO         — United States, California
//   PJM          — United States, Mid-Atlantic
//   MISO         — United States/Canada, Midwest + Manitoba
//   ERCOT        — United States, Texas
//
// Fleet compositions are stylized 2021 mixes; each preset is calibrated so
// the generated trace's annual median and CoV match the paper's Fig. 6
// (ESO lowest median with highest CoV, Tokyo highest median ~3x ESO with
// lowest CoV, etc.). The calibration is asserted by tests/test_presets.cpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "grid/region.h"

namespace hpcarbon::grid {

RegionSpec kansai();
RegionSpec tokyo();
RegionSpec eso();
RegionSpec ciso();
RegionSpec pjm();
RegionSpec miso();
RegionSpec ercot();

/// All seven, in the paper's Table 3 / Fig. 6 order.
std::vector<RegionSpec> all_regions();

/// The three most carbon-friendly regions compared hour-by-hour in Fig. 7.
std::vector<RegionSpec> fig7_regions();  // ESO, CISO, ERCOT

/// Preset lookup by Table 3 code; nullopt for unknown codes. The single
/// source for "is this a known region" — CLI validation, trace imports,
/// and the sweep sections all resolve codes through here.
std::optional<RegionSpec> find_region(const std::string& code);

/// find_region for callers that need the preset: throws hpcarbon::Error
/// "unknown region code 'X' (known: KN, TK, ...)" for unknown codes, the
/// one wording `run`, `fleetsim`, `sweep` and the TraceStore share.
RegionSpec require_region(const std::string& code);

/// The codes of a spec list, in order (e.g. fig7_regions() -> {"ESO",
/// "CISO", "ERCOT"}).
std::vector<std::string> codes_of(const std::vector<RegionSpec>& specs);

}  // namespace hpcarbon::grid
