// Ablation A4: resolution-agnostic series core.
//
// (a) Integral query cost vs resolution: the whole point of the StepSeries
//     prefix sums is that an interval integral is O(1) in both the interval
//     length and the sample count — a 5-minute trace carries 12x the
//     samples of an hourly one and must answer in the same time.
// (b) Construction and resampling throughput: what an import of a year of
//     5-minute Electricity Maps data costs before the first query runs.
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/series.h"
#include "core/time.h"
#include "reporter.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

std::vector<double> synthetic_year(double step_seconds) {
  const auto n = static_cast<std::size_t>(
      kHoursPerYear * kSecondsPerHour / step_seconds);
  std::vector<double> v(n);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    const double hod =
        std::fmod(static_cast<double>(i) * step_seconds / 3600.0, 24.0);
    v[i] = 300.0 - 120.0 * std::exp(-(hod - 13.0) * (hod - 13.0) / 16.0) +
           rng.uniform(-10.0, 10.0);
  }
  return v;
}

using clock_type = std::chrono::steady_clock;

double ns_per_call(clock_type::time_point t0, clock_type::time_point t1,
                   int calls) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / calls;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "series")) return 0;
  bench::Reporter report("series", args);
  const int kQueries = args.smoke ? 20000 : 200000;
  const int kReps = args.smoke ? 5 : 50;
  Rng rng(3);
  std::vector<std::pair<double, double>> queries;
  queries.reserve(static_cast<std::size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    queries.emplace_back(rng.uniform(-8760.0, 2.0 * 8760.0),
                         rng.uniform(0.01, 3.0 * 8760.0));
  }

  using bench::Direction;
  bench::print_banner("A4 (a): integral query cost vs resolution");
  TextTable t({"Resolution", "Samples", "ns/query", "vs hourly", "Checksum"});
  double hourly_ns = 0;
  for (const double step : {3600.0, 900.0, 300.0}) {
    const StepSeries s(synthetic_year(step), step);
    // Warm-up pass keeps the first-touch page faults out of the timing.
    double sink = 0;
    for (const auto& [a, d] : queries) sink += s.integral(a, d);
    const auto t0 = clock_type::now();
    double acc = 0;
    for (const auto& [a, d] : queries) acc += s.integral(a, d);
    const auto t1 = clock_type::now();
    const double ns = ns_per_call(t0, t1, kQueries);
    if (step == 3600.0) hourly_ns = ns;
    t.add_row({TextTable::num(step, 0) + " s",
               std::to_string(s.size()), TextTable::num(ns, 1),
               TextTable::num(ns / hourly_ns, 2) + "x",
               TextTable::num((acc + sink) * 1e-9, 3)});
    report.metric("integral_ns_" + TextTable::num(step, 0) + "s", ns, "ns",
                  Direction::kLowerIsBetter, /*pinned=*/step == 300.0);
  }
  bench::print_table(t);
  std::cout << "O(1) check: 12x the samples must not mean 12x the query "
               "cost.\n";

  bench::print_banner("A4 (b): construction / resampling throughput");
  TextTable c({"Operation", "Samples", "ms", "M samples/s"});
  for (const double step : {3600.0, 300.0}) {
    const auto values = synthetic_year(step);
    const auto t0 = clock_type::now();
    double sink = 0;
    for (int r = 0; r < kReps; ++r) {
      const StepSeries s(values, step);
      sink += s.total();
    }
    const auto t1 = clock_type::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
    c.add_row({"construct @" + TextTable::num(step, 0) + " s",
               std::to_string(values.size()), TextTable::num(ms, 3),
               TextTable::num(static_cast<double>(values.size()) / ms / 1e3,
                              1)});
    report.metric("construct_msamples_s_" + TextTable::num(step, 0) + "s",
                  static_cast<double>(values.size()) / ms / 1e3, "Msamples/s",
                  Direction::kHigherIsBetter, /*pinned=*/step == 300.0);
    (void)sink;
  }
  {
    const StepSeries fine(synthetic_year(300.0), 300.0);
    const auto t0 = clock_type::now();
    double sink = 0;
    for (int r = 0; r < kReps; ++r) {
      sink += fine.resampled(3600.0).total();
    }
    const auto t1 = clock_type::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
    c.add_row({"resample 300 s -> 3600 s", std::to_string(fine.size()),
               TextTable::num(ms, 3),
               TextTable::num(static_cast<double>(fine.size()) / ms / 1e3,
                              1)});
    report.metric("resample_msamples_s",
                  static_cast<double>(fine.size()) / ms / 1e3, "Msamples/s",
                  Direction::kHigherIsBetter, /*pinned=*/true);
    (void)sink;
  }
  bench::print_table(c);
  report.write();
  return 0;
}

HPCARBON_TOOL("series", ToolKind::kBench,
              "Ablation A4: StepSeries integral cost vs resolution, "
              "construction/resampling throughput; --json trajectory")
