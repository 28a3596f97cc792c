#include "cli/dispatch.h"

#include <algorithm>
#include <climits>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/fleetsim_tool.h"
#include "cli/metrics_tool.h"
#include "cli/registry.h"
#include "cli/scenario_runner.h"
#include "cli/serve_tool.h"
#include "cli/sweep.h"
#include "cli/trace_tool.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "sched/policy.h"

namespace hpcarbon::cli {

std::size_t default_worker_threads() {
  const std::size_t env = ThreadPool::env_thread_hint();
  if (env > 0) return env;
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

void size_pool(std::size_t threads) {
  ThreadPool::set_global_threads(threads > 0 ? threads
                                             : default_worker_threads());
}

void add_threads_flag(options::Table& flags, std::size_t* threads) {
  flags.integer("--threads", "N", threads, 0,
                static_cast<double>(ThreadPool::kMaxThreads),
                "worker threads; 0 (default): HPCARBON_THREADS or "
                "max(cores, 2)");
}

void add_policies_flag(options::Table& flags,
                       std::vector<std::string>* policies) {
  flags.list(
      "--policies", "a,b,...",
      [policies](const std::string& name) {
        policies->push_back(parse_policy(name));
      },
      "policies by short or canonical name (default: all)");
}

void add_trace_csv_flag(options::Table& flags, TraceOverrides* overrides) {
  flags.repeated(
      "--trace-csv", "REGION=FILE",
      [overrides](const std::string& spec) {
        overrides->push_back(parse_trace_override(spec));
      },
      "drive a region with an imported grid CSV (repeatable)");
}

void add_csv_flag(options::Table& flags, std::string* path) {
  flags.text("--csv", "PATH", path, "also write the report as CSV");
}

namespace {

int run_tool(ToolKind kind, const std::string& name, int argc, char** argv,
             std::ostream& err) {
  const ToolEntry* tool = find_tool(name);
  if (tool == nullptr) {
    err << "hpcarbon: unknown tool '" << name
        << "' (see `hpcarbon list`)\n";
    return 2;
  }
  if (tool->kind != kind) {
    err << "hpcarbon: '" << name << "' is "
        << (tool->kind == ToolKind::kBench ? "a bench" : "an example")
        << "; use `hpcarbon " << to_string(tool->kind) << " " << name
        << "`\n";
    return 2;
  }
  // The tool sees itself as argv[0], with any trailing driver arguments
  // forwarded, and reads them from argv[1] on through its option table.
  return tool->fn(argc, argv);
}

int cmd_list() {
  std::cout << banner("hpcarbon tools");
  TextTable t({"Kind", "Name", "Description"});
  for (const auto& e : tools()) {
    t.add_row({to_string(e.kind), e.name, e.description});
  }
  std::cout << t.to_string();

  std::cout << banner("scenario runner (`hpcarbon run`)");
  std::cout << "regions: ";
  for (const auto& c : region_codes()) std::cout << c << ' ';
  std::cout << "(or --all-regions)\npolicies: ";
  for (const auto& p : policy_names()) std::cout << p << ' ';
  // Report the count `run` would use without spinning up the pool for a
  // purely informational command.
  std::cout << "\nworker threads: " << default_worker_threads() << '\n';
  return 0;
}

int cmd_policies() {
  std::cout << banner("registered scheduling policies");
  TextTable t({"Policy", "Short", "Description", "Knobs (default)"});
  for (const auto& desc : sched::registered_policies()) {
    std::string knobs;
    for (const auto& k : desc.knobs) {
      if (!knobs.empty()) knobs.append(", ");
      knobs.append(k.name);
      knobs.append("=");
      knobs.append(TextTable::num(k.default_value, 1));
    }
    t.add_row({desc.name, desc.short_name, desc.description,
               knobs.empty() ? std::string("-") : knobs});
  }
  std::cout << t.to_string();
  std::cout << "\nselect with `hpcarbon run --policies name,name,...` "
               "(canonical or short names);\nsee README \"Adding a "
               "scheduling policy\" to register your own.\n";
  return 0;
}

int cmd_run(int argc, char** argv, std::ostream& out, std::ostream& err) {
  ScenarioOptions opts;
  std::string csv_path;
  bool all_regions = false;
  std::size_t threads = 0;
  options::Table flags(
      "run", "<REGION...> [flags]",
      "scenario sweep: the scheduling-policy ablation in each named Table 3 "
      "region");
  flags.flag("--all-regions", &all_regions, "sweep all seven regions");
  add_policies_flag(flags, &opts.policies);
  flags
      .number("--days", "N", &opts.horizon_days, {.lo = 0, .lo_open = true},
              "workload horizon in days (default 28)")
      .number("--rate", "R", &opts.arrival_rate_per_hour,
              {.lo = 0, .lo_open = true}, "job arrivals per hour (default 2.5)")
      .integer("--uncertainty", "N", &opts.uncertainty_samples, 1, INT_MAX,
               "add savings quantiles over N workload seeds");
  add_trace_csv_flag(flags, &opts.trace_csv);
  add_csv_flag(flags, &csv_path);
  add_threads_flag(flags, &threads);
  flags.positional([&opts](const std::string& code) {
    // Repeated codes would duplicate cells.
    if (std::find(opts.regions.begin(), opts.regions.end(), code) ==
        opts.regions.end()) {
      opts.regions.push_back(code);
    }
  });
  if (!flags.parse(argc, argv, out)) return 0;
  if (all_regions) {
    if (!opts.regions.empty()) {
      throw Error("--all-regions cannot be combined with named regions");
    }
    opts.regions = region_codes();
  }
  if (opts.regions.empty()) {
    err << "hpcarbon run: name at least one region or pass "
           "--all-regions (see `hpcarbon list`)\n";
    return 2;
  }

  size_pool(threads);
  const ScenarioReport report = run_scenarios(opts);
  std::cout << banner("scenario sweep: " + std::to_string(opts.regions.size()) +
                      " regions x policy ablation");
  std::cout << report.jobs << " jobs over "
            << static_cast<int>(opts.horizon_days) << " days; "
            << report.rows.size() << " scenario cells on "
            << report.worker_threads_used << " worker threads\n";
  for (const auto& note : report.trace_notes) {
    std::cout << "trace override: " << note << '\n';
  }
  std::cout << '\n';
  std::cout << report.to_table().to_string();
  if (!csv_path.empty()) {
    write_file(csv_path, report.to_csv());
    std::cout << "\nmerged CSV report written to " << csv_path << '\n';
  }
  return 0;
}

/// The commands that parse their own flags. Each renders its usage for
/// `hpcarbon <cmd> --help`, and `hpcarbon help` lists them all.
struct Command {
  const char* name;
  int (*run)(int argc, char** argv, std::ostream& out, std::ostream& err);
};

constexpr Command kCommands[] = {
    {"run", cmd_run},     {"sweep", cmd_sweep}, {"fleetsim", cmd_fleetsim},
    {"trace", cmd_trace}, {"batch", cmd_batch}, {"serve", cmd_serve},
    {"metrics", cmd_metrics},
};

int usage(std::ostream& out, int exit_code) {
  out << "usage: hpcarbon <command> [args...]\n"
         "\n"
         "  list                      all tools, regions, and policies\n"
         "  policies                  registered scheduling policies and "
         "their knobs\n"
         "  bench <name> [args...]    run one figure/table/ablation bench\n"
         "  example <name> [args...]  run one example\n"
         "  help                      this message; `hpcarbon <command> "
         "--help` shows one command\n";
  char help_flag[] = "--help";
  char* help_argv[] = {help_flag};
  for (const Command& c : kCommands) {
    out << '\n';
    c.run(1, help_argv, out, out);
  }
  return exit_code;
}

}  // namespace

int dispatch(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) return usage(err, 2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return usage(out, 0);
  }
  if (cmd == "list") return cmd_list();
  if (cmd == "policies") return cmd_policies();
  for (const Command& c : kCommands) {
    if (cmd == c.name) return c.run(argc - 2, argv + 2, out, err);
  }
  if (cmd == "bench" || cmd == "example") {
    if (argc < 3) {
      err << "hpcarbon " << cmd << ": missing tool name\n";
      return 2;
    }
    const ToolKind kind =
        cmd == "bench" ? ToolKind::kBench : ToolKind::kExample;
    return run_tool(kind, argv[2], argc - 2, argv + 2, err);
  }
  err << "hpcarbon: unknown command '" << cmd << "'\n";
  return usage(err, 2);
}

}  // namespace hpcarbon::cli
