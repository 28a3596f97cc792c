#include "grid/import.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/csv.h"
#include "core/error.h"

namespace hpcarbon::grid {

namespace {

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

bool name_matches(const std::string& name,
                  const std::vector<std::string>& needles) {
  const std::string n = lower(name);
  for (const auto& needle : needles) {
    if (n.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool parse_double_cell(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// "YYYY-MM-DD[T ]HH:MM[:SS][Z|±HH[:MM]]" -> seconds since year start, or
/// a negative value when the cell is not calendar-shaped.
double parse_iso_seconds(const std::string& cell) {
  int month = 0, day = 0, hour = 0, minute = 0;
  double second = 0;
  // Fixed-width date prefix: YYYY-MM-DD.
  if (cell.size() < 16 || cell[4] != '-' || cell[7] != '-') return -1.0;
  for (int i : {0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15}) {
    if (std::isdigit(static_cast<unsigned char>(cell[static_cast<std::size_t>(
            i)])) == 0) {
      return -1.0;
    }
  }
  const char sep = cell[10];
  if (sep != 'T' && sep != ' ') return -1.0;
  if (cell[13] != ':') return -1.0;
  month = (cell[5] - '0') * 10 + (cell[6] - '0');
  day = (cell[8] - '0') * 10 + (cell[9] - '0');
  hour = (cell[11] - '0') * 10 + (cell[12] - '0');
  minute = (cell[14] - '0') * 10 + (cell[15] - '0');
  std::size_t pos = 16;
  if (pos < cell.size() && cell[pos] == ':') {
    char* end = nullptr;
    second = std::strtod(cell.c_str() + pos + 1, &end);
    pos = static_cast<std::size_t>(end - cell.c_str());
  }
  // Trailing zone designator ("Z", "+09:00", "-08") is tolerated and
  // ignored: rows are local time in ImportOptions::tz by contract.
  if (pos < cell.size() && cell[pos] != 'Z' && cell[pos] != '+' &&
      cell[pos] != '-') {
    return -1.0;
  }
  HPC_REQUIRE(month >= 1 && month <= 12, "timestamp month out of range: " +
                                             cell);
  HPC_REQUIRE(day >= 1 && day <= kDaysInMonth[static_cast<std::size_t>(
                              month - 1)],
              "timestamp day out of range for the modeled non-leap year: " +
                  cell);
  HPC_REQUIRE(hour < 24 && minute < 60 && second >= 0 && second < 61,
              "timestamp time-of-day out of range: " + cell);
  const double day_of_year =
      month_start_hour(month - 1) / static_cast<double>(kHoursPerDay) +
      (day - 1);
  return day_of_year * kHoursPerDay * kSecondsPerHour +
         hour * kSecondsPerHour + minute * 60.0 + second;
}

struct Sample {
  double seconds = 0;
  double value = std::numeric_limits<double>::quiet_NaN();  // NaN: missing
  std::size_t line = 0;
};

}  // namespace

double parse_timestamp_seconds(const std::string& cell) {
  const double iso = parse_iso_seconds(cell);
  if (iso >= 0.0) return iso;
  double hours = 0;
  HPC_REQUIRE(parse_double_cell(cell, &hours),
              "unparseable timestamp cell: '" + cell + "'");
  HPC_REQUIRE(std::isfinite(hours) && hours >= 0.0 && hours < kHoursPerYear,
              "numeric timestamp must be an hour-of-year in [0, 8760): '" +
                  cell + "'");
  return hours * kSecondsPerHour;
}

std::string ImportReport::to_string() const {
  std::ostringstream out;
  out << samples << " samples @" << step_seconds << "s from " << rows
      << " rows";
  if (gaps_filled > 0) {
    out << "; " << gap_events << " gap" << (gap_events == 1 ? "" : "s")
        << " forward-filled (" << gaps_filled << " samples, longest "
        << longest_gap << ")";
  }
  if (tiled_from > 0) {
    out << "; tiled to the year from " << tiled_from << " samples";
  }
  return out.str();
}

CarbonIntensityTrace import_trace(const std::string& csv_text,
                                  const std::string& region_code,
                                  const ImportOptions& opts,
                                  ImportReport* report) {
  const CsvTable table = parse_csv_table(csv_text);
  HPC_REQUIRE(!table.rows.empty(), "trace CSV has no rows");
  HPC_REQUIRE(table.rows[0].size() >= 2,
              "trace CSV needs a timestamp and an intensity column");

  // Column discovery. A header exists when the first row's would-be
  // timestamp cell parses as neither a number nor a calendar timestamp.
  std::size_t ts_col = 0;
  std::size_t ci_col = 1;
  std::size_t first_data = 0;
  {
    const auto& row0 = table.rows[0];
    double tmp = 0;
    const bool has_header = !parse_double_cell(row0[0], &tmp) &&
                            parse_iso_seconds(row0[0]) < 0.0;
    if (has_header) {
      first_data = 1;
      for (std::size_t c = 0; c < row0.size(); ++c) {
        if (name_matches(row0[c], {"datetime", "timestamp", "date", "time",
                                   "hour"})) {
          ts_col = c;
          break;
        }
      }
      for (std::size_t c = 0; c < row0.size(); ++c) {
        if (c == ts_col) continue;
        if (name_matches(row0[c], {"carbon_intensity", "intensity", "gco2",
                                   "ci_", "g_per_kwh"})) {
          ci_col = c;
          break;
        }
      }
      HPC_REQUIRE(ci_col != ts_col, "cannot tell the intensity column from "
                                    "the timestamp column");
    }
  }

  // Parse rows; a blank or non-numeric intensity cell is a gap, not an
  // error (Electricity Maps exports carry holes exactly like missing rows).
  std::vector<Sample> samples;
  samples.reserve(table.rows.size() - first_data);
  for (std::size_t r = first_data; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    Sample s;
    s.seconds = parse_timestamp_seconds(row[ts_col]);
    s.line = table.line_numbers[r];
    double v = 0;
    if (parse_double_cell(row[ci_col], &v)) {
      HPC_REQUIRE(std::isfinite(v) && v >= 0.0,
                  "carbon intensity must be finite and non-negative (CSV "
                  "line " + std::to_string(s.line) + ")");
      s.value = v;
    }
    samples.push_back(s);
  }
  HPC_REQUIRE(!samples.empty(), "trace CSV has no data rows");
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.seconds < b.seconds;
                   });

  // Cadence: forced, or the smallest positive delta between neighbours.
  double step = opts.step_seconds;
  if (step <= 0.0) {
    double min_delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const double d = samples[i].seconds - samples[i - 1].seconds;
      if (d > 0.0) min_delta = std::min(min_delta, d);
    }
    HPC_REQUIRE(std::isfinite(min_delta),
                "cannot infer the cadence from a single distinct timestamp; "
                "pass step_seconds");
    step = min_delta;
  }
  HPC_REQUIRE(std::isfinite(step) && step > 0.0, "cadence must be positive");
  if (step < kMinImportStepSeconds) {
    throw Error("trace CSV cadence must be at least " +
                std::to_string(static_cast<int>(kMinImportStepSeconds)) +
                " s (got " + std::to_string(step) + " s)");
  }
  {
    const double n = kSecondsPerYear / step;
    HPC_REQUIRE(std::abs(n - std::round(n)) < 1e-9,
                "cadence must divide the year evenly (got " +
                    std::to_string(step) + " s)");
  }
  const auto year_samples =
      static_cast<std::size_t>(std::llround(kSecondsPerYear / step));

  // Place every row on the sample grid.
  std::vector<double> grid(year_samples,
                           std::numeric_limits<double>::quiet_NaN());
  std::size_t max_slot = 0;
  long last_slot = -1;
  for (const auto& s : samples) {
    const double pos = s.seconds / step;
    const auto slot = static_cast<std::size_t>(std::llround(pos));
    HPC_REQUIRE(std::abs(pos - static_cast<double>(slot)) < 1e-6,
                "timestamp off the " + std::to_string(step) +
                    " s sample grid (CSV line " + std::to_string(s.line) +
                    ")");
    HPC_REQUIRE(slot < year_samples, "timestamp beyond the modeled year "
                                     "(CSV line " + std::to_string(s.line) +
                                     ")");
    HPC_REQUIRE(static_cast<long>(slot) != last_slot,
                "duplicate timestamp (CSV line " + std::to_string(s.line) +
                    ")");
    last_slot = static_cast<long>(slot);
    grid[slot] = s.value;
    max_slot = std::max(max_slot, slot);
  }

  // Coverage: the sample span the file addresses. Shorter-than-year spans
  // tile; anything else must be the full year.
  std::size_t span = max_slot + 1;
  if (span != year_samples) {
    HPC_REQUIRE(opts.tile_to_year,
                "trace covers " + std::to_string(span) + " of " +
                    std::to_string(year_samples) +
                    " samples and tiling is disabled");
    // Tiling replicates the diurnal cycle, so the covered span must be a
    // whole number of days — a download truncated mid-day would otherwise
    // tile out of phase (its midnight landing at a different local hour
    // every repetition) with no diagnostic, and trailing missing rows
    // never trip the max-gap guard.
    const double covered_days =
        static_cast<double>(span) * step / (kHoursPerDay * kSecondsPerHour);
    HPC_REQUIRE(std::abs(covered_days - std::round(covered_days)) < 1e-9 &&
                    covered_days > 0.5,
                "tiling needs whole days of coverage, got " +
                    std::to_string(covered_days) +
                    " days — is the export truncated mid-day?");
  }

  // Forward-fill gaps inside the covered span, treating it as periodic (a
  // missing opening sample fills from the span's last value).
  ImportReport rep;
  rep.rows = samples.size();
  rep.step_seconds = step;
  std::size_t first_known = span;
  for (std::size_t i = 0; i < span; ++i) {
    if (!std::isnan(grid[i])) {
      first_known = i;
      break;
    }
  }
  HPC_REQUIRE(first_known < span, "trace CSV has no usable intensity values");
  double prev = grid[first_known];
  std::size_t run = 0;
  for (std::size_t k = 1; k <= span; ++k) {
    const std::size_t i = (first_known + k) % span;
    if (std::isnan(grid[i])) {
      grid[i] = prev;
      ++run;
      ++rep.gaps_filled;
      HPC_REQUIRE(run <= static_cast<std::size_t>(
                             std::max(0, opts.max_gap_samples)),
                  "gap of more than " +
                      std::to_string(opts.max_gap_samples) +
                      " samples around sample " + std::to_string(i) +
                      "; refusing to forward-fill that much");
    } else {
      if (run > 0) {
        ++rep.gap_events;
        rep.longest_gap = std::max(rep.longest_gap, run);
        run = 0;
      }
      prev = grid[i];
    }
  }

  if (span != year_samples) {
    rep.tiled_from = span;
    for (std::size_t i = span; i < year_samples; ++i) {
      grid[i] = grid[i % span];
    }
  }
  rep.samples = year_samples;
  if (report != nullptr) *report = rep;
  return CarbonIntensityTrace(region_code, opts.tz, std::move(grid), step);
}

CarbonIntensityTrace import_trace_file(const std::string& path,
                                       const std::string& region_code,
                                       const ImportOptions& opts,
                                       ImportReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::string text;
  text.reserve(kMaxImportBytes + 1);  // no regrowth copies up to the cap
  char chunk[1 << 16];
  while (in && text.size() <= kMaxImportBytes) {
    const std::size_t want =
        std::min(sizeof(chunk), kMaxImportBytes + 1 - text.size());
    in.read(chunk, static_cast<std::streamsize>(want));
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (text.size() > kMaxImportBytes) {
    throw Error("trace CSV '" + path + "' is larger than " +
                std::to_string(kMaxImportBytes) + " bytes");
  }
  return import_trace(text, region_code, opts, report);
}

}  // namespace hpcarbon::grid
