// Micro-benchmarks of the framework's hot computational paths: grid trace
// generation, trace analytics, embodied rollups, upgrade curves,
// Monte-Carlo propagation, and a full scheduler run. These bound the cost
// of interactive use (e.g. re-running a system design sweep inside an RFP
// loop).
//
// Originally written against google-benchmark; the harness is now a small
// self-calibrating timer so the bench builds everywhere the repo builds
// and can emit trajectory rows (--json) with no external dependency. Each
// kernel is run once to estimate its cost, then repeated until the timed
// window (200 ms full, 20 ms smoke) is filled — the same adaptive scheme
// google-benchmark uses, minus the statistics we don't chart.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "embodied/catalog.h"
#include "embodied/uncertainty.h"
#include "fleetsim/ablation.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/perf.h"
#include "lifecycle/systems.h"
#include "lifecycle/upgrade.h"
#include "reporter.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

using clock_type = std::chrono::steady_clock;

// Defeat dead-code elimination without google-benchmark's DoNotOptimize:
// accumulate into a volatile sink.
volatile double g_sink = 0;

struct KernelRow {
  std::string name;
  double ns_per_op = 0;
  double items_per_s = 0;  // 0 when the kernel has no item count
  long reps = 0;
};

/// Run `fn` (returning a double to sink) adaptively: one calibration call,
/// then enough reps to fill `window_ms`. items_per_op scales the
/// throughput column (0 = not meaningful).
template <typename Fn>
KernelRow time_kernel(const std::string& name, double window_ms,
                      double items_per_op, Fn&& fn) {
  const auto c0 = clock_type::now();
  g_sink = g_sink + fn();
  const double first_ms =
      std::chrono::duration<double, std::milli>(clock_type::now() - c0)
          .count();
  long reps = static_cast<long>(window_ms / std::max(first_ms, 1e-6));
  reps = std::max(1L, std::min(reps, 1000000L));
  const auto t0 = clock_type::now();
  for (long r = 0; r < reps; ++r) g_sink = g_sink + fn();
  const double total_ms =
      std::chrono::duration<double, std::milli>(clock_type::now() - t0)
          .count();
  KernelRow row;
  row.name = name;
  row.reps = reps;
  row.ns_per_op = total_ms * 1e6 / static_cast<double>(reps);
  if (items_per_op > 0) {
    row.items_per_s = items_per_op * static_cast<double>(reps) /
                      (total_ms / 1000.0);
  }
  return row;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "perf")) return 0;
  bench::Reporter report("perf", args);
  const double window_ms = args.smoke ? 20.0 : 200.0;

  bench::print_banner("Hot-path micro-benchmarks (self-calibrating, " +
                      TextTable::num(window_ms, 0) + " ms window per kernel)");

  std::vector<KernelRow> rows;

  rows.push_back(time_kernel("grid_trace_generation", window_ms,
                             kHoursPerYear, [] {
    return grid::GridSimulator(grid::eso()).run().values().back();
  }));

  {
    const auto trace = grid::GridSimulator(grid::ciso()).run();
    rows.push_back(time_kernel("trace_summary", window_ms, 0, [&] {
      return grid::summarize(trace).cov_percent;
    }));
  }

  {
    const auto traces = grid::generate_traces(grid::fig7_regions());
    rows.push_back(time_kernel("hourly_winner_analysis", window_ms, 0, [&] {
      return static_cast<double>(
          grid::hourly_lowest_ci(traces, kJst).counts.front()[0]);
    }));
  }

  {
    const auto frontier = lifecycle::frontier();
    rows.push_back(time_kernel("system_embodied_rollup", window_ms, 0, [&] {
      return lifecycle::class_breakdown(frontier).by_class.front().to_grams();
    }));
  }

  {
    lifecycle::UpgradeScenario sc;
    sc.old_node = hw::p100_node();
    sc.new_node = hw::a100_node();
    sc.suite = workload::Suite::kVision;
    const std::vector<double> years = {0.25, 0.5, 1, 2, 3, 4, 5};
    rows.push_back(time_kernel("upgrade_savings_curve", window_ms, 0, [&] {
      return lifecycle::savings_curve(sc, years).back();
    }));
  }

  {
    const auto& part = embodied::processor(embodied::PartId::kMi250x);
    for (int samples : {1024, 8192}) {
      rows.push_back(time_kernel(
          "mc_uncertainty_" + std::to_string(samples), window_ms, samples,
          [&] {
            return embodied::propagate(part, embodied::UncertaintyBands{},
                                       samples)
                .mean.to_grams();
          }));
    }
  }

  {
    const fleetsim::FleetEngine sim = fleetsim::trio_engine(
        sched::prepare_regions(grid::generate_traces(grid::fig7_regions())),
        12, HourOfYear(0));
    sched::WorkloadParams wp;
    wp.horizon_hours = 24.0 * 28;
    const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                   sched::generated_user_names(wp.user_count));
    rows.push_back(time_kernel("scheduler_month", window_ms,
                               static_cast<double>(jobs.size()), [&] {
      const auto policy = sched::make_policy("greedy-lowest-ci");
      return sim.run(jobs, *policy).total_carbon.to_grams();
    }));
  }

  {
    const auto p = hw::p100_node(), v = hw::v100_node(), a = hw::a100_node();
    rows.push_back(time_kernel("table6_reproduction", window_ms, 0, [&] {
      double acc = 0;
      for (auto s : workload::all_suites()) {
        acc += hw::upgrade_improvement_percent(s, p, v);
        acc += hw::upgrade_improvement_percent(s, p, a);
        acc += hw::upgrade_improvement_percent(s, v, a);
      }
      return acc;
    }));
  }

  TextTable t({"Kernel", "Reps", "ns/op", "Items/s"});
  using bench::Direction;
  for (const auto& r : rows) {
    t.add_row({r.name, std::to_string(r.reps), TextTable::num(r.ns_per_op, 0),
               r.items_per_s > 0 ? TextTable::num(r.items_per_s / 1e6, 2) + " M"
                                 : "-"});
    // mc_uncertainty_8192 is the pinned row: the propagate path is the
    // in-process consumer of the batched MC engine this trajectory tracks.
    report.metric(r.name + "_ns", r.ns_per_op, "ns",
                  Direction::kLowerIsBetter,
                  /*pinned=*/r.name == "mc_uncertainty_8192");
  }
  bench::print_table(t);
  report.write();
  return 0;
}

HPCARBON_TOOL("perf", ToolKind::kBench,
              "Hot-path micro-benchmarks: grid sim, analytics, rollups, MC "
              "propagation, scheduler month; --json trajectory")
