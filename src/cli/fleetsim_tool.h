// `hpcarbon fleetsim`: the datacenter-scale fleet simulator as a CLI
// command — policy ablation over millions of synthetic (or replayed) jobs
// through fleetsim::FleetEngine, with measured simulation throughput and
// optional savings quantiles over workload seeds.
#pragma once

#include <iosfwd>

namespace hpcarbon::cli {

/// argv starts after the subcommand (like cmd_run); --help goes to `out`.
/// Returns the process exit code.
int cmd_fleetsim(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
