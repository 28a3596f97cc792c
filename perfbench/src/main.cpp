// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Prints the workload configuration, any correctness problems, and as its
// last stdout line the result object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits 1 when an answer was wrong, 2 on bad
// arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-dir <dir>]\nworkloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--trace-dir") {
        opt.trace_dir = val;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds needed");

  Report rep;
  try {
    if (is_query_workload(workload)) {
      rep = run_query(query_config(workload), opt);
    } else if (workload == "fleet-policies") {
      rep = run_fleet(fleet_config(), opt);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  // Every metric of the mode is reported; a layer the workload does not
  // exercise reads 0.
  Metrics out;
  const auto names = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, unit] : names) {
    const auto it = rep.metrics.find(name);
    out[name] = {it != rep.metrics.end() ? it->second.value : 0.0, unit};
  }
  std::cout << "config " << rep.config_json << "\n";
  for (const auto& p : rep.problems) std::cout << "problem: " << p << "\n";
  std::cout << result_json(rep.correct, rep.attempted, rep.failed, out)
            << std::endl;
  return rep.correct ? 0 : 1;
}
