// Real grid-trace ingestion: Electricity-Maps-style CSV -> CarbonIntensityTrace.
//
// The paper's operational pipeline (Eq. 6, Figs. 6-7, carbon-aware
// scheduling) consumed Electricity Maps exports; this module loads that
// shape of file — a timestamp column plus a gCO2/kWh column, at whatever
// cadence the zone publishes (5-minute, 15-minute, or hourly) — and turns
// it into the trace type every analysis in the repo runs on:
//
//  * Column discovery: with a header row, the timestamp column is the one
//    whose name mentions time/date/hour and the intensity column the one
//    mentioning carbon/intensity/gco2 (fallback: columns 0 and 1). Without
//    a header, columns 0 and 1.
//  * Timestamps: ISO 8601 ("2021-06-01T13:05:00Z", 'T' or space separator,
//    seconds and zone suffix optional) mapped onto the modeled non-leap
//    year, or plain numbers read as fractional hours-of-year (the layout
//    CarbonIntensityTrace::to_csv emits). The calendar year digits and any
//    zone suffix are ignored: rows are taken as local time in
//    ImportOptions::tz, matching how grid operators publish.
//  * Cadence: inferred as the smallest gap between consecutive timestamps
//    (or forced via ImportOptions::step_seconds); every row must land on
//    the implied sample grid. A cadence finer than kMinImportStepSeconds
//    is refused before the year grid is allocated.
//  * Gap repair: missing rows and rows with an empty/non-numeric intensity
//    cell are forward-filled from the previous sample (wrapping the
//    period, so a missing first row fills from the last). Each gap run is
//    capped at max_gap_samples; anything longer is an error, not silent
//    fabrication. Fills are counted in ImportReport.
//  * Tiling: data covering a whole number of days (e.g. a two-day sample
//    fixture) is replicated periodically out to the full year when
//    tile_to_year is set — the fixture path that lets `hpcarbon run
//    --trace-csv` exercise real data end to end without shipping 105k
//    rows. Partial-day coverage (a download truncated mid-day) is
//    rejected: tiling it would drift the diurnal cycle out of phase.
#pragma once

#include <cstddef>
#include <string>

#include "core/time.h"
#include "grid/trace.h"

namespace hpcarbon::grid {

/// Finest cadence the importer accepts. The year grid is sized from the
/// cadence, so without a floor two rows a millisecond apart would ask for
/// tens of gigabytes; at 60 s the grid is 525,600 samples (4.2 MB).
constexpr double kMinImportStepSeconds = 60;

/// Largest file import_trace_file reads (16 MiB). A year at the 60 s
/// floor with ISO timestamps is about 14.7 MB; a stream that does not end
/// (/dev/zero, a FIFO that keeps writing) stops one byte past the cap.
constexpr std::size_t kMaxImportBytes = std::size_t{16} << 20;

struct ImportOptions {
  /// Zone the file's timestamps are local to (tags the produced trace).
  TimeZone tz = kUtc;
  /// Sample cadence in seconds; 0 infers it from the timestamp deltas.
  double step_seconds = 0;
  /// Longest gap run (in samples) forward-fill may repair; longer gaps
  /// abort the import. 12 samples = 1 h of 5-minute data.
  int max_gap_samples = 12;
  /// Replicate shorter-than-year coverage periodically to fill the year
  /// (whole days only; partial-day coverage is always an error).
  bool tile_to_year = true;
};

/// What the importer did — surfaced by `hpcarbon trace stats` and logged by
/// --trace-csv overrides so repaired data is never silently identical to
/// measured data.
struct ImportReport {
  std::size_t rows = 0;          // data rows parsed from the file
  double step_seconds = 0;       // cadence used
  std::size_t samples = 0;       // samples in the produced year trace
  std::size_t gaps_filled = 0;   // samples created by forward fill
  std::size_t gap_events = 0;    // distinct gap runs repaired
  std::size_t longest_gap = 0;   // samples in the longest repaired run
  /// Source samples tiled out to the year; 0 when the file covered the
  /// whole year natively.
  std::size_t tiled_from = 0;

  /// One-line summary ("105120 samples @300s, 3 gaps (7 samples) filled").
  std::string to_string() const;
};

/// Import CSV text. Throws hpcarbon::Error on malformed timestamps,
/// off-grid rows, duplicate timestamps, a cadence below
/// kMinImportStepSeconds, over-cap gaps, or coverage that is neither a
/// full year nor tileable.
CarbonIntensityTrace import_trace(const std::string& csv_text,
                                  const std::string& region_code,
                                  const ImportOptions& opts = {},
                                  ImportReport* report = nullptr);

/// Read the file + import_trace. Throws hpcarbon::Error for a file larger
/// than kMaxImportBytes, after reading at most one byte past the cap.
CarbonIntensityTrace import_trace_file(const std::string& path,
                                       const std::string& region_code,
                                       const ImportOptions& opts = {},
                                       ImportReport* report = nullptr);

/// Seconds since the modeled year's start for one timestamp cell (exposed
/// for tests; see the header comment for accepted formats).
double parse_timestamp_seconds(const std::string& cell);

}  // namespace hpcarbon::grid
