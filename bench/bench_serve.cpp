// Serve-layer load generator: what the query service costs and what the
// cache buys.
//
// Phases are explicit and seed-pinned so that `--json` trajectory rows
// are comparable across machines and across PRs:
//
//   cold  — a fresh Engine answers the pinned Zipf mix line by line
//           (cache filling; every distinct query evaluates once).
//   warm  — the same Engine answers the identical mix again (cache full;
//           the steady state a dashboard-heavy production log sees).
//   batch — a second fresh Engine answers the same mix via handle_batch
//           (dedup + pool fan-out), cold then warm.
//
// The mix itself is a deterministic function of two pinned seeds:
// kShuffleSeed shuffles the query universe (so Zipf head ranks are not
// correlated with family order) and kMixSeed draws the Zipf(1.1) ranks.
// Identical on every machine, every run, full and smoke mode alike —
// smoke only shortens the replay, it does not re-roll it.
//
// (c) TraceStore reuse: what one preset-trace generation costs vs the
//     shared-store lookup every later section/query performs — the reason
//     `hpcarbon sweep` sections and `run --uncertainty` stopped re-parsing
//     their --trace-csv inputs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/table.h"
#include "net/loadgen.h"
#include "core/thread_pool.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "reporter.h"
#include "serve/cache.h"
#include "serve/engine.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

using clock_type = std::chrono::steady_clock;

// The pinned mix seeds live in net/loadgen.h now, shared with the
// netload bench so both trajectories replay the same stream. zipf_mix is
// prefix-stable, so growing the full replay (2000 -> 10000 requests, for
// a meaningful p999) extended the old stream instead of re-rolling it.
constexpr std::size_t kFullRequests = 10000;
constexpr std::size_t kSmokeRequests = 300;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
      .count();
}

struct PassResult {
  double total_ms = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  serve::CacheStats stats;
};

PassResult replay(serve::Engine& engine, const std::vector<std::string>& mix) {
  const serve::CacheStats before = engine.cache_stats();
  std::vector<double> latencies_us;
  latencies_us.reserve(mix.size());
  std::string response;  // reused, as the daemon loop does
  const auto t0 = clock_type::now();
  for (const auto& line : mix) {
    const auto r0 = clock_type::now();
    response.clear();
    engine.handle_line_to(line, response);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(clock_type::now() - r0)
            .count());
    if (response.find("\"ok\":true") == std::string::npos) {
      std::cerr << "unexpected error response: " << response << '\n';
      std::exit(1);
    }
  }
  PassResult res;
  res.total_ms = ms_since(t0);
  std::sort(latencies_us.begin(), latencies_us.end());
  res.p50_us = latencies_us[latencies_us.size() / 2];
  res.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  res.p999_us = net::percentile_sorted(latencies_us, 0.999);
  res.stats = engine.cache_stats();
  res.stats.hits -= before.hits;
  res.stats.misses -= before.misses;
  return res;
}

double qps(const PassResult& r, std::size_t requests) {
  return 1000.0 * static_cast<double>(requests) / r.total_ms;
}

void add_pass_row(TextTable& t, const std::string& label, const PassResult& r,
                  std::size_t requests) {
  const double hit_rate =
      100.0 * static_cast<double>(r.stats.hits) /
      static_cast<double>(r.stats.hits + r.stats.misses);
  t.add_row({label, std::to_string(requests), TextTable::num(r.total_ms, 1),
             TextTable::num(qps(r, requests), 0), TextTable::num(r.p50_us, 1),
             TextTable::num(r.p99_us, 1), TextTable::num(hit_rate, 1),
             std::to_string(r.stats.evictions),
             std::to_string(r.stats.bytes)});
}

int tool_main(int argc, char** argv) {
  bench::BenchArgs args;
  if (!args.parse(argc, argv, "serve-load")) return 0;
  bench::Reporter report("serve-load", args);
  const std::size_t requests = args.smoke ? kSmokeRequests : kFullRequests;

  bench::print_banner(
      "serve-load: Zipf query mix, cold vs warm cache (target >= 10x)");
  const auto mix = net::zipf_mix(requests);
  std::cout << net::query_universe().size() << " distinct queries, "
            << mix.size() << " Zipf(1.1)-skewed requests (shuffle seed "
            << net::kShuffleSeed << ", mix seed " << net::kMixSeed << ")\n";

  serve::ServeOptions opts;
  opts.cache_bytes = 4u << 20;
  serve::Engine engine(opts);

  TextTable t({"Phase", "Requests", "Total ms", "req/s", "p50 us", "p99 us",
               "Hit %", "Evictions", "Cache bytes"});
  const PassResult cold = replay(engine, mix);
  add_pass_row(t, "cold (cache filling)", cold, mix.size());
  const PassResult warm = replay(engine, mix);
  add_pass_row(t, "warm (cache full)", warm, mix.size());
  bench::print_table(t);
  std::cout << "warm-over-cold speedup: "
            << TextTable::num(cold.total_ms / warm.total_ms, 1)
            << "x (target >= 10x); cache stayed within its "
            << (opts.cache_bytes >> 20) << " MiB budget: "
            << (warm.stats.bytes <= opts.cache_bytes ? "yes" : "NO") << "\n";

  bench::print_banner("serve-load: batch planner (dedup + pool fan-out)");
  TextTable b({"Phase", "Requests", "Total ms", "req/s"});
  double batch_cold_ms = 0, batch_warm_ms = 0;
  {
    serve::Engine batch_engine(opts);
    const auto t0 = clock_type::now();
    const auto responses = batch_engine.handle_batch(mix);
    batch_cold_ms = ms_since(t0);
    const auto t1 = clock_type::now();
    (void)batch_engine.handle_batch(mix);
    batch_warm_ms = ms_since(t1);
    b.add_row({"batch cold", std::to_string(responses.size()),
               TextTable::num(batch_cold_ms, 1),
               TextTable::num(1000.0 * static_cast<double>(mix.size()) /
                                  batch_cold_ms, 0)});
    b.add_row({"batch warm", std::to_string(mix.size()),
               TextTable::num(batch_warm_ms, 1),
               TextTable::num(1000.0 * static_cast<double>(mix.size()) /
                                  batch_warm_ms, 0)});
  }
  bench::print_table(b);

  bench::print_banner("TraceStore: parse/generate once, share everywhere");
  // The satellite measurement: a preset year costs a full simulator run
  // on first touch and a map lookup afterwards — which is why the sweep
  // sections and `run --uncertainty N` now share one parse per
  // (region, file) instead of re-importing per section.
  serve::TraceStore store;
  const auto g0 = clock_type::now();
  const auto first = store.preset("ESO");
  const double generate_ms = ms_since(g0);
  const auto g1 = clock_type::now();
  constexpr int kLookups = 1000;
  for (int i = 0; i < kLookups; ++i) {
    if (store.preset("ESO").get() != first.get()) std::exit(1);
  }
  const double lookup_us = 1000.0 * ms_since(g1) / kLookups;
  TextTable s({"Operation", "Cost"});
  s.add_row({"generate ESO preset (first touch)",
             TextTable::num(generate_ms, 2) + " ms"});
  s.add_row({"shared-store lookup (every later use)",
             TextTable::num(lookup_us, 2) + " us"});
  s.add_row({"reuse factor", TextTable::num(
                                 1000.0 * generate_ms / lookup_us, 0) + "x"});
  bench::print_table(s);
  std::cout << "store counters: " << store.hits() << " hits, "
            << store.misses() << " misses\n";

  // The trajectory contract: warm p50/throughput are the pinned hot-path
  // metrics (the per-request cost once evaluation is out of the picture
  // — pure parse/canonicalize/hash/hit/emit); cold and batch rows are
  // informational context.
  using bench::Direction;
  report.metric("requests", static_cast<double>(mix.size()), "count",
                Direction::kHigherIsBetter);
  report.metric("cold_qps", qps(cold, mix.size()), "req/s",
                Direction::kHigherIsBetter);
  report.metric("cold_p50_us", cold.p50_us, "us", Direction::kLowerIsBetter);
  report.metric("warm_qps", qps(warm, mix.size()), "req/s",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.metric("warm_p50_us", warm.p50_us, "us", Direction::kLowerIsBetter,
                /*pinned=*/true);
  report.metric("warm_p99_us", warm.p99_us, "us", Direction::kLowerIsBetter);
  // Pinned tail: the p999 regression gate (10000 warm samples -> the
  // order statistic averages ~10 tail events, stable enough to pin).
  report.metric("warm_p999_us", warm.p999_us, "us", Direction::kLowerIsBetter,
                /*pinned=*/true);
  report.metric("warm_hit_pct",
                100.0 * static_cast<double>(warm.stats.hits) /
                    static_cast<double>(warm.stats.hits + warm.stats.misses),
                "%", Direction::kHigherIsBetter);
  report.metric("warm_over_cold", cold.total_ms / warm.total_ms, "x",
                Direction::kHigherIsBetter);
  report.metric("batch_cold_qps",
                1000.0 * static_cast<double>(mix.size()) / batch_cold_ms,
                "req/s", Direction::kHigherIsBetter);
  report.metric("batch_warm_qps",
                1000.0 * static_cast<double>(mix.size()) / batch_warm_ms,
                "req/s", Direction::kHigherIsBetter, /*pinned=*/true);
  report.metric("trace_generate_ms", generate_ms, "ms",
                Direction::kLowerIsBetter);
  report.metric("trace_lookup_us", lookup_us, "us", Direction::kLowerIsBetter);
  report.write();
  return 0;
}

}  // namespace

HPCARBON_TOOL("serve-load", ToolKind::kBench,
              "Query-service load generator: pinned-seed Zipf mix, "
              "cold/warm/batch phases, TraceStore reuse; --json trajectory")
