// `hpcarbon trace`: inspect, resample, and export real grid-trace files.
//
//   hpcarbon trace stats <file>                 import + summary statistics
//   hpcarbon trace resample <file> --step S     re-emit at a new cadence
//   hpcarbon trace export <file>                re-emit canonical CSV
//
// `hpcarbon trace --help` lists the import and output flags.
#pragma once

#include <iosfwd>

namespace hpcarbon::cli {

/// `hpcarbon trace` entry point (argv excludes the subcommand itself);
/// --help and `hpcarbon trace help` go to `out`.
int cmd_trace(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
