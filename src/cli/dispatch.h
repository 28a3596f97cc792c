// Top-level command dispatch of the `hpcarbon` driver.
//
// Lives in hpcarbon_cli_core (not main.cpp) so the exit-code and stream
// contract is unit-testable in-process:
//
//   hpcarbon                  -> usage on `err`, exit 2
//   hpcarbon <unknown>        -> diagnostic + usage on `err`, exit 2
//   hpcarbon help|--help|-h   -> usage on `out`, exit 0
//   hpcarbon <cmd> --help|-h  -> that command's usage on `out`, exit 0
//
// Subcommand reports print to std::cout/std::cerr; `out`/`err` carry the
// usage text (top-level and per-command) and the exit-2 diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/scenario_runner.h"
#include "core/options.h"

namespace hpcarbon::cli {

/// Worker count `hpcarbon` uses when --threads is absent or 0: the
/// HPCARBON_THREADS environment variable if set, else at least two
/// workers so scenario/batch fan-out overlaps even on single-core
/// machines.
std::size_t default_worker_threads();

/// Size the global pool from a --threads value (0: default_worker_threads).
void size_pool(std::size_t threads);

/// Flags several commands share, declared once so each keeps one
/// spelling, range and help line everywhere.
void add_threads_flag(options::Table& flags, std::size_t* threads);
/// --policies a,b,...: canonical names of registered policies.
void add_policies_flag(options::Table& flags,
                       std::vector<std::string>* policies);
void add_trace_csv_flag(options::Table& flags, TraceOverrides* overrides);
void add_csv_flag(options::Table& flags, std::string* path);

/// Full driver dispatch over the original argc/argv (argv[0] is the
/// program name). May throw hpcarbon::Error (main catches and maps to
/// exit 1).
int dispatch(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
