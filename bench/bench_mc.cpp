// Ablation A5: cost of the Monte-Carlo engine abstraction.
//
// The mc::Engine replaced two hand-rolled sampling loops in
// embodied::propagate (and unlocked distribution APIs in the lifecycle,
// fleet, and scheduler layers). This bench verifies the abstraction is
// free: samples/sec of the engine vs the pre-refactor hand-rolled loop on
// the same per-sample model, thread-count scaling on explicit pools, and a
// checksum demonstrating bit-identical results on 1 worker vs many.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "core/stats.h"
#include "embodied/catalog.h"
#include "embodied/models.h"
#include "embodied/uncertainty.h"
#include "mc/engine.h"
#include "reporter.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

// The pre-refactor propagate loop, verbatim: ad-hoc xor substreams, inline
// parallel_for, no engine. Kept here purely as the timing reference.
std::vector<double> hand_rolled(const embodied::ProcessorPart& part,
                                const embodied::UncertaintyBands& bands,
                                int samples, std::uint64_t seed,
                                ThreadPool& pool) {
  std::vector<double> grams(static_cast<std::size_t>(samples), 0.0);
  pool.parallel_for(0, grams.size(), [&](std::size_t i) {
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    double total = 0;
    for (const auto& die : part.dies) {
      const double per_area = embodied::fab_footprint(die.node).total_g_per_cm2() *
                              rng.uniform(1.0 - bands.fab_per_area,
                                          1.0 + bands.fab_per_area);
      double y = part.yield + rng.uniform(-bands.yield, bands.yield);
      y = std::clamp(y, 0.5, 1.0);
      total += per_area * (die.area_mm2 / 100.0) * die.count / y;
    }
    total += embodied::kPackagingGramsPerIc * part.ic_count *
             rng.uniform(1.0 - bands.packaging, 1.0 + bands.packaging);
    grams[i] = total;
  });
  return grams;
}

double checksum(const std::vector<double>& xs) {
  double acc = 0;
  for (double x : xs) acc += x;
  return acc;
}

// The pre-refactor summarize(): mean, stddev, and three quantiles, each
// quantile call copying and sorting the vector again (uncertainty.cpp:23-25
// before the stats::Summary migration).
double legacy_summarize(const std::vector<double>& grams) {
  return stats::mean(grams) + stats::stddev(grams) +
         stats::quantile(grams, 0.05) + stats::quantile(grams, 0.50) +
         stats::quantile(grams, 0.95);
}

}  // namespace

static int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "mc")) return 0;
  bench::Reporter report("mc", args);
  const auto& part = embodied::processor(embodied::PartId::kA100Pcie40);
  const embodied::UncertaintyBands bands;
  // ~1M draws in full mode; smoke keeps the same code path but finishes in
  // well under a second so CI can afford the row.
  const int kSamples = args.smoke ? (1 << 16) : (1 << 20);
  const std::size_t hw_threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  bench::print_banner("MC engine vs hand-rolled loop (A100 embodied, " +
                      std::to_string(kSamples) + " samples)");
  ThreadPool pool(hw_threads);
  // Warm-up: fault in the pool and the part tables outside the timed runs.
  (void)hand_rolled(part, bands, 1 << 12, 1, pool);

  const auto t0 = clock_type::now();
  const auto hand = hand_rolled(part, bands, kSamples, 42, pool);
  const double ms_hand = ms_since(t0);

  mc::SamplePlan plan{kSamples, 42, &pool};
  const auto t1 = clock_type::now();
  const auto engine_samples = mc::Engine(plan).run_samples(
      [&](std::size_t, Rng& rng) {
        return embodied::sample_embodied_grams(part, bands, rng);
      });
  const double ms_engine = ms_since(t1);

  TextTable t({"Variant", "Time (ms)", "Msamples/s", "Overhead"});
  auto rate = [&](double ms) { return kSamples / ms / 1e3; };
  t.add_row({"hand-rolled loop (pre-refactor)", TextTable::num(ms_hand, 1),
             TextTable::num(rate(ms_hand), 2), "-"});
  t.add_row({"mc::Engine::run_samples", TextTable::num(ms_engine, 1),
             TextTable::num(rate(ms_engine), 2),
             TextTable::pct(100.0 * (ms_engine - ms_hand) / ms_hand, 1)});
  bench::print_table(t);
  std::cout << "Engine cost vs the reference loop is the substream "
               "derivation plus per-sample dispatch; the blocked engine "
               "amortizes both across a block.\n";

  bench::print_banner("Summarization + end-to-end propagate equivalent");
  // Pre-refactor pipeline: hand loop, then mean/stddev plus a fresh sort
  // per quantile. New pipeline: engine, then one-sort Distribution.
  const auto t2 = clock_type::now();
  const double legacy_sum = legacy_summarize(hand);
  const double ms_legacy_summ = ms_since(t2);

  const auto t3 = clock_type::now();
  const auto dist = mc::Engine(plan).run([&](std::size_t, Rng& rng) {
    return embodied::sample_embodied_grams(part, bands, rng);
  });
  const double ms_new_total = ms_since(t3);
  const double ms_old_total = ms_hand + ms_legacy_summ;

  TextTable e({"Pipeline", "Sample (ms)", "Summarize (ms)", "Total (ms)"});
  e.add_row({"pre-refactor (3-sort summary)", TextTable::num(ms_hand, 1),
             TextTable::num(ms_legacy_summ, 1),
             TextTable::num(ms_old_total, 1)});
  e.add_row({"mc::Engine + Distribution (1 sort)",
             TextTable::num(ms_engine, 1),
             TextTable::num(ms_new_total - ms_engine, 1),
             TextTable::num(ms_new_total, 1)});
  bench::print_table(e);
  std::cout << "end-to-end speedup "
            << TextTable::num(ms_old_total / ms_new_total, 2) << "x; p50 "
            << TextTable::num(dist.p50() / 1e3, 2) << " kg, p95 "
            << TextTable::num(dist.p95() / 1e3, 2) << " kg (legacy checksum "
            << TextTable::num(legacy_sum / 1e3, 2) << ")\n";

  bench::print_banner("Thread scaling and determinism");
  TextTable s({"Workers", "Time (ms)", "Msamples/s", "Checksum delta vs 1"});
  double checksum_serial = 0;
  bool bit_identical = true;
  std::vector<std::size_t> worker_counts = {1, 2};
  if (hw_threads > 2) worker_counts.push_back(hw_threads);
  for (std::size_t workers : worker_counts) {
    ThreadPool p(workers);
    mc::SamplePlan wp{kSamples, 42, &p};
    const auto w0 = clock_type::now();
    const auto xs = mc::Engine(wp).run_samples([&](std::size_t, Rng& rng) {
      return embodied::sample_embodied_grams(part, bands, rng);
    });
    const double ms = ms_since(w0);
    const double sum = checksum(xs);
    if (workers == 1) checksum_serial = sum;
    if (sum != checksum_serial) bit_identical = false;
    s.add_row({std::to_string(workers), TextTable::num(ms, 1),
               TextTable::num(rate(ms), 2),
               sum == checksum_serial ? "bit-identical" : "MISMATCH"});
  }
  bench::print_table(s);
  std::cout << "\nSubstreams are derived from (seed, sample index), never "
               "from the executing thread, so any worker count reproduces "
               "the same distribution bit for bit.\n";

  using bench::Direction;
  report.metric("samples", static_cast<double>(kSamples), "count",
                Direction::kHigherIsBetter);
  report.metric("engine_msamples_s", rate(ms_engine), "Msamples/s",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.metric("hand_msamples_s", rate(ms_hand), "Msamples/s",
                Direction::kHigherIsBetter);
  report.metric("engine_overhead_pct",
                100.0 * (ms_engine - ms_hand) / ms_hand, "%",
                Direction::kLowerIsBetter);
  report.metric("e2e_speedup", ms_old_total / ms_new_total, "x",
                Direction::kHigherIsBetter);
  report.metric("thread_bit_identical", bit_identical ? 1.0 : 0.0, "bool",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.write();
  return bit_identical ? 0 : 1;
}

HPCARBON_TOOL("mc", ToolKind::kBench,
              "Ablation A5: MC engine samples/sec vs hand-rolled loops, "
              "thread scaling, determinism; --json trajectory")
