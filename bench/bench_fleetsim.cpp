// Fleet-simulator throughput: millions of simulated jobs per second on
// thousands of nodes.
//
// The headline of src/fleetsim is scale — an event-heap engine with
// integer ticks and struct-of-arrays job storage that pushes ~1M synthetic
// jobs through a 4096-node trio at over a million simulated jobs per
// wall-clock second. This bench measures exactly that: workload generation
// rate and simulation throughput under fcfs-local and a cross-region
// policy, plus a bitwise parity verdict (the acceptance gate, pinned):
// the fcfs-local metrics must equal, bit for bit, those the double-clock
// reference engine (tests/reference_engine.h) produced on the same fleet.
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/table.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "reporter.h"
#include "sched/policy.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// fcfs-local metrics of this bench's fleet as IEEE-754 bit patterns,
/// recorded from the reference engine, one set per mode. A change to the
/// engine, the fleet generator, or the traces shows up as a mismatch.
struct ReferenceMetrics {
  std::uint64_t total_carbon_g;
  std::uint64_t transfer_carbon_g;
  std::uint64_t total_energy_kwh;
  std::uint64_t mean_wait_hours;
  std::uint64_t p95_wait_hours;
  std::uint64_t utilization;
  int jobs_completed;
  int remote_dispatches;
};

constexpr ReferenceMetrics kSmokeReference{
    0x41b6656c4e17c0f5, 0, 0x412df84b43ca4719, 0x3ef560af862e564a,
    0,                  0x3fd9a2c459da2204,    100064, 0};
constexpr ReferenceMetrics kFullReference{
    0x41eb63eb3d747f42, 0, 0x4162b877b8eb070a, 0,
    0,                  0x3fda77c80674d18a,    999529, 0};

bool matches(const sched::ScheduleMetrics& m, const ReferenceMetrics& r) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(m.total_carbon.to_grams()) == r.total_carbon_g &&
         bits(m.transfer_carbon.to_grams()) == r.transfer_carbon_g &&
         bits(m.total_energy.to_kwh()) == r.total_energy_kwh &&
         bits(m.mean_wait_hours) == r.mean_wait_hours &&
         bits(m.p95_wait_hours) == r.p95_wait_hours &&
         bits(m.utilization) == r.utilization &&
         m.jobs_completed == r.jobs_completed &&
         m.remote_dispatches == r.remote_dispatches;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "fleetsim")) return 0;
  bench::Reporter report("fleetsim", args);

  // Paper trio (ERCOT home, ESO + CISO remote), sized to 4096 nodes total
  // in full mode. The Poisson rate keeps mean concurrency (~rate x 5.5h
  // mean duration) at ~85% of the *home* capacity, since fcfs-local must
  // absorb the whole stream on site 0: realistically busy, not overloaded
  // (an overloaded queue measures the O(queue) policy scan, not the
  // engine).
  const int home_cap = args.smoke ? 512 : 2048;
  const int remote_cap = args.smoke ? 256 : 1024;
  const double rate = args.smoke ? 80.0 : 320.0;
  const double horizon_hours = args.smoke ? 1250.0 : 3125.0;  // rate*h ~ jobs

  const auto traces = grid::generate_traces(grid::fig7_regions());
  const std::vector<sched::Site> sites = {
      sched::make_site("ERCOT", traces[2], home_cap),
      sched::make_site("ESO", traces[0], remote_cap),
      sched::make_site("CISO", traces[1], remote_cap)};
  const HourOfYear epoch(3624);  // June 1
  const fleetsim::FleetEngine fleet(sites, epoch);

  fleetsim::FleetWorkloadParams wp;
  wp.rate_per_hour = rate;
  wp.horizon_hours = horizon_hours;
  wp.user_count = 64;

  bench::print_banner("fleet workload generation (" +
                      std::string(args.smoke ? "smoke" : "full") + " mode)");
  const auto g0 = clock_type::now();
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(wp);
  const double gen_s = seconds_since(g0);
  const double n = static_cast<double>(jobs.size());
  std::cout << jobs.size() << " jobs onto " << fleet.capacity_total()
            << " nodes in " << TextTable::num(gen_s * 1e3, 1) << " ms ("
            << TextTable::num(n / gen_s / 1e6, 2) << " Mjobs/s generated)\n";

  bench::print_banner("simulation throughput");
  TextTable t({"Engine / policy", "Time (s)", "Mjobs/s", "Carbon kg"});
  auto timed_fleet = [&](const char* policy_name, double* out_s) {
    const auto policy = sched::make_policy(policy_name);
    const auto t0 = clock_type::now();
    const auto m = fleet.run(jobs, *policy);
    *out_s = seconds_since(t0);
    t.add_row({std::string("fleetsim / ") + policy_name,
               TextTable::num(*out_s, 2), TextTable::num(n / *out_s / 1e6, 2),
               TextTable::num(m.total_carbon.to_kilograms(), 1)});
    return m;
  };
  double warm_s = 0, fcfs_s = 0, greedy_s = 0;
  (void)timed_fleet("fcfs-local", &warm_s);  // warm-up: fault in traces
  const auto fcfs_metrics = timed_fleet("fcfs-local", &fcfs_s);
  (void)timed_fleet("greedy-lowest-ci", &greedy_s);
  bench::print_table(t);

  const bool parity = matches(
      fcfs_metrics, args.smoke ? kSmokeReference : kFullReference);
  const double jobs_per_sec = n / fcfs_s;
  std::cout << "\nfcfs-local: " << TextTable::num(jobs_per_sec / 1e6, 2)
            << " Mjobs/s; parity vs the reference engine's recorded "
               "metrics: "
            << (parity ? "bit-identical" : "MISMATCH") << "\n";

  using bench::Direction;
  report.metric("jobs", n, "count", Direction::kHigherIsBetter);
  report.metric("nodes", fleet.capacity_total(), "count",
                Direction::kHigherIsBetter);
  report.metric("jobs_per_sec", jobs_per_sec, "jobs/s",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.metric("greedy_jobs_per_sec", n / greedy_s, "jobs/s",
                Direction::kHigherIsBetter);
  report.metric("gen_jobs_per_sec", n / gen_s, "jobs/s",
                Direction::kHigherIsBetter);
  report.metric("parity_bit_identical", parity ? 1.0 : 0.0, "bool",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.write();
  return parity ? 0 : 1;
}

HPCARBON_TOOL("fleetsim", ToolKind::kBench,
              "Fleet-simulator throughput: Mjobs/s on 4k nodes and bitwise "
              "parity vs the reference engine; --json trajectory")
