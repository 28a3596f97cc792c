#include "cli/trace_tool.h"

#include <algorithm>
#include <climits>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/csv.h"
#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "grid/analysis.h"
#include "grid/import.h"
#include "grid/presets.h"

namespace hpcarbon::cli {

namespace {

struct TraceArgs {
  std::string verb;
  std::string file;
  std::string region = "TRACE";
  grid::ImportOptions import;
  std::optional<int> tz_offset;  // unset: the region preset's zone
  bool no_tile = false;
  double step_out = 0;  // resample target cadence
  std::string out_path;
};

void emit(const std::string& content, const std::string& out_path) {
  if (out_path.empty()) {
    std::cout << content;
  } else {
    write_file(out_path, content);
    std::cout << "written to " << out_path << '\n';
  }
}

int cmd_stats(const grid::CarbonIntensityTrace& trace,
              const grid::ImportReport& report) {
  std::cout << banner("trace " + trace.region_code());
  std::cout << "import: " << report.to_string() << '\n';
  std::cout << "zone:   UTC" << (trace.time_zone().utc_offset_hours() >= 0
                                     ? "+"
                                     : "")
            << trace.time_zone().utc_offset_hours() << ", cadence "
            << trace.step_seconds() << " s (" << trace.size()
            << " samples/year)\n\n";

  const grid::RegionSummary s = grid::summarize(trace);
  TextTable t({"Stat", "gCO2/kWh"});
  t.add_row({"min", TextTable::num(s.box.min, 1)});
  t.add_row({"q1", TextTable::num(s.box.q1, 1)});
  t.add_row({"median", TextTable::num(s.box.median, 1)});
  t.add_row({"mean", TextTable::num(s.box.mean, 1)});
  t.add_row({"q3", TextTable::num(s.box.q3, 1)});
  t.add_row({"max", TextTable::num(s.box.max, 1)});
  t.add_row({"CoV %", TextTable::num(s.cov_percent, 1)});
  std::cout << t.to_string();

  const auto profile = grid::diurnal_profile(trace);
  const auto lo = std::min_element(profile.begin(), profile.end());
  const auto hi = std::max_element(profile.begin(), profile.end());
  std::cout << "\ncleanest local hour " << (lo - profile.begin()) << " ("
            << TextTable::num(*lo, 1) << "), dirtiest hour "
            << (hi - profile.begin()) << " (" << TextTable::num(*hi, 1)
            << ")\n";
  return 0;
}

/// Import honoring the flags: an explicit zone wins, else the preset zone
/// of the region, else UTC.
grid::CarbonIntensityTrace import_trace(const TraceArgs& args,
                                        grid::ImportReport* report) {
  grid::ImportOptions opts = args.import;
  opts.tile_to_year = !args.no_tile;
  if (args.tz_offset) {
    opts.tz = TimeZone(*args.tz_offset, "forced");
  } else if (const auto spec = grid::find_region(args.region)) {
    opts.tz = spec->tz;
  } else if (args.region != "TRACE") {
    // A typo'd code would otherwise silently tag the trace UTC and shift
    // every local-hour statistic; only the default tag gets the UTC
    // fallback.
    throw Error("unknown region code '" + args.region +
                "'; use a Table 3 code or pass --tz-offset");
  }
  return grid::import_trace_file(args.file, args.region, opts, report);
}

}  // namespace

int cmd_trace(int argc, char** argv, std::ostream& out, std::ostream& err) {
  TraceArgs args;
  options::Table flags(
      "trace", "<stats|resample|export> <file> [flags]",
      "import a grid-trace CSV; stats summarizes it, resample re-emits it\n"
      "at the --step cadence, export as canonical hour,intensity CSV");
  flags
      .text("--region", "CODE", &args.region,
            "region tag; a Table 3 code also sets the zone (default TRACE)")
      .integer("--tz-offset", "H", &args.tz_offset, -12, 14,
               "force the local-time zone, whole hours vs UTC")
      .number("--step-in", "S", &args.import.step_seconds,
              {.lo = 0}, "force the input cadence, seconds (default 0: "
              "inferred)")
      .integer("--max-gap", "N", &args.import.max_gap_samples, 0,
               INT_MAX, "forward-fill cap per gap, samples (default 12)")
      .flag("--no-tile", &args.no_tile,
            "fail instead of tiling sub-year coverage")
      .number("--step", "S", &args.step_out, {.lo = 0, .lo_open = true},
              "resample cadence, seconds")
      .text("--out", "PATH", &args.out_path,
            "write the output CSV here instead of stdout")
      .positional([&args](const std::string& arg) {
        if (args.verb.empty()) {
          args.verb = arg;
        } else if (args.file.empty()) {
          args.file = arg;
        } else {
          throw Error("trace takes a verb and one file, got '" + arg +
                      "' too");
        }
      });
  if (!flags.parse(argc, argv, out)) return 0;
  if (args.verb.empty() || args.file.empty()) {
    const bool help = args.verb == "help";
    flags.usage(help ? out : err);
    return help ? 0 : 2;
  }
  grid::ImportReport report;
  const grid::CarbonIntensityTrace trace = import_trace(args, &report);

  if (args.verb == "stats") {
    return cmd_stats(trace, report);
  }
  if (args.verb == "resample") {
    if (args.step_out <= 0) {
      throw Error("trace resample needs --step SECONDS");
    }
    const auto resampled = trace.resampled(args.step_out);
    // Progress lines go to stderr so a bare `trace resample file --step S`
    // still pipes clean CSV.
    std::cerr << "import: " << report.to_string() << '\n'
              << "resampled " << trace.step_seconds() << " s -> "
              << resampled.step_seconds() << " s (" << resampled.size()
              << " samples)\n";
    emit(resampled.to_csv(), args.out_path);
    return 0;
  }
  if (args.verb == "export") {
    std::cerr << "import: " << report.to_string() << '\n';
    emit(trace.to_csv(), args.out_path);
    return 0;
  }
  err << "hpcarbon trace: unknown verb '" << args.verb << "'\n";
  flags.usage(err);
  return 2;
}

}  // namespace hpcarbon::cli
