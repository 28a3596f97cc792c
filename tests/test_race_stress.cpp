// Race-stress suites for the concurrent serving stack, written to run hot
// under ThreadSanitizer (HPCARBON_SANITIZE=thread; the TSan CI job repeats
// the `race_stress` ctest label). Each test hammers one shared structure
// with adversarial schedules — overlapping evictions on a single cache
// shard, import-vs-lookup churn on a TraceStore with a cap of one,
// duplicate keys racing their batch leader, forecast policies reading
// their regions' shared forecasts, nested parallel_for re-entrancy — and
// then asserts *exact* ledger invariants or answers, not just
// sanitizer silence: a counter that drifts under contention is a wrong
// gCO2 answer waiting to be served.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bounded_policy.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "fleetsim/ablation.h"
#include "fleetsim/jobs.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "obs/metrics.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"
#include "serve/cache.h"
#include "serve/engine.h"

namespace hpcarbon::serve {
namespace {

const std::string kSampleCsv =
    std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";

/// Deterministic per-key payload with key-dependent size, so the byte
/// ledger is stressed by unequal entry costs.
std::string value_of(std::uint64_t key) {
  return std::string(100 + static_cast<std::size_t>(key) * 17,
                     static_cast<char>('a' + key % 26));
}

std::string canonical_of(std::uint64_t key) {
  return "canon-" + std::to_string(key);
}

// One shard, sixteen keys, a budget that holds only a handful of entries:
// every put can evict, every get races an eviction, and the LRU list /
// index / byte ledger must still reconcile exactly afterwards.
TEST(RaceStress, SingleCacheShardOverlappingEvictions) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint64_t kKeys = 16;
  // ~4 mid-sized entries fit; the value sizes span 100..355 bytes.
  ResultCache cache(1, 1600);

  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 101);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kKeys) - 1));
        if (rng.bernoulli(0.5)) {
          cache.put(key, canonical_of(key), value_of(key));
        } else {
          const auto v = cache.get(key, canonical_of(key));
          if (v.has_value()) {
            EXPECT_EQ(*v, value_of(key));
          }
          gets.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Exact counter coherence (the hammer is over; reads are quiescent):
  //   every get counted exactly one hit or miss,
  //   entries enter only via insert and leave only via eviction,
  //   the byte ledger equals the sum of resident entry costs.
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
  EXPECT_LE(s.bytes, cache.byte_budget());
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (cache.get(key, canonical_of(key)).has_value()) {
      ++resident;
      resident_bytes +=
          ResultCache::entry_cost(canonical_of(key), value_of(key));
    }
  }
  EXPECT_EQ(resident, s.entries);
  EXPECT_EQ(resident_bytes, s.bytes);
}

// Eight threads request the same un-built preset at once: building runs
// outside the store lock, so several may build the year trace and its
// prepared region, but exactly one insert wins and everyone must receive
// that winner.
TEST(RaceStress, TraceStoreConcurrentFirstTouchPreset) {
  constexpr int kThreads = 8;
  TraceStore store;
  std::vector<TraceStore::StoredPtr> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = store.preset("KN"); });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t], got[0]) << "thread " << t << " got a different object";
    EXPECT_EQ(got[t]->prepared, got[0]->prepared);
  }
  // One winning insert; every other call (racing or later) is a hit.
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), static_cast<std::uint64_t>(kThreads) - 1);
}

// Imports churning against preset lookups, with max_imports=1 so the two
// import keys continually evict each other and re-parse, while lookup
// threads hammer the shared map from the other side.
TEST(RaceStress, TraceStoreImportVsLookupChurn) {
  constexpr int kLookupThreads = 4;
  constexpr int kImportThreads = 2;
  constexpr int kIters = 40;
  TraceStore store;
  store.set_max_imports(1);

  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  const char* preset_codes[] = {"ESO", "CISO"};
  for (int t = 0; t < kLookupThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto stored = store.preset(preset_codes[(t + i) % 2]);
        ASSERT_NE(stored, nullptr);
        EXPECT_GT(stored->trace.size(), 0u);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const char* import_codes[] = {"ERCOT", "KN"};
  for (int t = 0; t < kImportThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto stored =
            store.imported(import_codes[(t + i) % 2], kSampleCsv);
        ASSERT_NE(stored, nullptr);
        EXPECT_GT(stored->trace.size(), 0u);
        EXPECT_FALSE(stored->note.empty());  // the parse's report, cached
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every lookup resolved to exactly one hit or one miss, under eviction
  // churn and concurrent first-touch generation alike.
  EXPECT_EQ(store.hits() + store.misses(), lookups.load());
  // The cap held: at most 1 import resident next to the 2 presets.
  EXPECT_LE(store.size(), 3u);
}

// Duplicate canonical keys race their leader inside one batch segment
// while a tiny cache evicts leaders' results out from under their
// followers. The contract under test: query responses are byte-identical
// to a sequential replay on an equally-fresh engine, regardless.
TEST(RaceStress, BatchDuplicateKeysRacingTheLeader) {
  const char* parts[] = {"mi250x",         "a100-pcie-40", "v100-sxm2-32",
                         "epyc-7763",      "epyc-7742",    "xeon-gold-6240r",
                         "dram-64gb-ddr4", "hdd-exos-x16"};
  // Round-robin so duplicates of each key are spread across the batch.
  std::vector<std::string> lines;
  for (int rep = 0; rep < 6; ++rep) {
    for (const char* part : parts) {
      lines.push_back(std::string(R"({"op":"embodied","params":{"part":")") +
                      part + R"("}})");
    }
  }

  // Each engine counts into a registry of its own (its TraceStore too),
  // so the ledger below is the batch engine's alone.
  ThreadPool pool(8);
  obs::MetricsRegistry registry;
  TraceStore traces(&registry);
  ServeOptions opts;
  opts.pool = &pool;
  opts.traces = &traces;
  opts.registry = &registry;
  opts.cache_shards = 1;
  opts.cache_bytes = 1024;  // a few entries: leaders evict each other
  Engine batch_engine(opts);
  const auto batch = batch_engine.handle_batch(lines);

  obs::MetricsRegistry seq_registry;
  TraceStore seq_traces(&seq_registry);
  ServeOptions seq_opts = opts;
  seq_opts.traces = &seq_traces;
  seq_opts.registry = &seq_registry;
  Engine seq_engine(seq_opts);
  ASSERT_EQ(batch.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(batch[i].find("\"ok\":true"), std::string::npos) << batch[i];
    EXPECT_EQ(batch[i], seq_engine.handle_line(lines[i])) << "line " << i;
    // All spellings are identical, so all responses per part must be too.
    EXPECT_EQ(batch[i], batch[i % std::size(parts)]);
  }

  // The ledger survived the churn exactly.
  const CacheStats s = batch_engine.cache_stats();
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
  EXPECT_LE(s.bytes, batch_engine.options().cache_bytes);
}

struct FleetRun {
  sched::ScheduleMetrics metrics;
  fleetsim::FleetOutcomes outcomes;
  sched::CarbonBudgetLedger ledger;
};

/// Runs each of `policies` on `engine` and `jobs` on this thread, then has
/// eight threads run them all at once (thread t from policies[t % size]
/// on, once every thread has started). Every concurrent run must answer
/// bit for bit what the same run on one thread did: metrics, outcomes and
/// ledger. Returns the one-thread runs, in the order named.
std::vector<FleetRun> expect_concurrent_runs_agree(
    const fleetsim::FleetEngine& engine, const fleetsim::FleetJobs& jobs,
    const std::vector<std::string>& policies) {
  constexpr int kThreads = 8;
  auto run = [&](const std::string& name) {
    FleetRun r;
    testutil::BoundedPolicy policy(sched::make_policy(name));
    r.metrics = engine.run(jobs, policy, &r.outcomes, &r.ledger);
    return r;
  };
  const std::size_t n = policies.size();
  std::vector<FleetRun> expected;
  for (const std::string& p : policies) expected.push_back(run(p));

  std::vector<std::vector<FleetRun>> got(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      const auto first = static_cast<std::size_t>(t) % n;
      got[static_cast<std::size_t>(t)].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t p = (first + i) % n;
        got[static_cast<std::size_t>(t)][p] = run(policies[p]);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t p = 0; p < n; ++p) {
      const FleetRun& want = expected[p];
      const FleetRun& run_got = got[static_cast<std::size_t>(t)][p];
      const std::string label = policies[p] + ", thread " + std::to_string(t);
      const sched::ScheduleMetrics& a = want.metrics;
      const sched::ScheduleMetrics& b = run_got.metrics;
      EXPECT_EQ(bits(a.total_carbon.to_grams()),
                bits(b.total_carbon.to_grams())) << label;
      EXPECT_EQ(bits(a.transfer_carbon.to_grams()),
                bits(b.transfer_carbon.to_grams())) << label;
      EXPECT_EQ(bits(a.total_energy.to_kwh()), bits(b.total_energy.to_kwh()))
          << label;
      EXPECT_EQ(bits(a.mean_wait_hours), bits(b.mean_wait_hours)) << label;
      EXPECT_EQ(bits(a.p95_wait_hours), bits(b.p95_wait_hours)) << label;
      EXPECT_EQ(bits(a.utilization), bits(b.utilization)) << label;
      EXPECT_EQ(a.jobs_completed, b.jobs_completed) << label;
      EXPECT_EQ(a.remote_dispatches, b.remote_dispatches) << label;
      const fleetsim::FleetOutcomes& x = want.outcomes;
      const fleetsim::FleetOutcomes& y = run_got.outcomes;
      EXPECT_EQ(x.size(), y.size()) << label;
      if (x.size() != y.size()) continue;
      EXPECT_EQ(x.job_id, y.job_id) << label;
      EXPECT_EQ(x.site, y.site) << label;
      EXPECT_EQ(x.start, y.start) << label;
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(bits(x.wait_hours[i]), bits(y.wait_hours[i])) << label;
        EXPECT_EQ(bits(x.carbon_g[i]), bits(y.carbon_g[i])) << label;
      }
      for (std::uint32_t u = 0; u < jobs.users().size(); ++u) {
        EXPECT_EQ(bits(want.ledger.spent(u).to_grams()),
                  bits(run_got.ledger.spent(u).to_grams()))
            << label << ", user " << u;
        EXPECT_EQ(bits(want.ledger.allocation(u).to_grams()),
                  bits(run_got.ledger.allocation(u).to_grams()))
            << label << ", user " << u;
      }
    }
  }
  return expected;
}

// Eight threads run forecast-delay and forecast-net-benefit at once on one
// trio engine, whose sites share their prepared regions and so each
// region's one forecast. The epoch is January 3, so the trailing 14-day
// windows of the first two weeks wrap back into December.
TEST(RaceStress, ForecastPoliciesShareTheirRegionsForecasts) {
  const fleetsim::FleetEngine engine = fleetsim::trio_engine(
      sched::prepare_regions(grid::generate_traces(grid::fig7_regions())), 8,
      HourOfYear(2 * kHoursPerDay));
  sched::WorkloadParams wp;
  wp.horizon_hours = 24 * 10;
  wp.arrival_rate_per_hour = 4.0;
  wp.seed = 2023;
  const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                 sched::generated_user_names(wp.user_count));
  const std::vector<FleetRun> expected = expect_concurrent_runs_agree(
      engine, jobs, {"forecast-delay", "forecast-net-benefit"});
  EXPECT_GT(expected[1].metrics.remote_dispatches, 0);
}

// Eight threads run greedy-lowest-ci and fcfs-local at once on one engine
// and one fleet, whose natural completion order every run reads. On 16
// slots per site greedy starts every job on time, and fcfs-local queues
// at the diurnal peaks, so both of the engine's completion sources run.
TEST(RaceStress, RunsShareOneFleetsNaturalOrder) {
  const fleetsim::FleetEngine engine = fleetsim::trio_engine(
      sched::prepare_regions(grid::generate_traces(grid::fig7_regions())),
      fleetsim::kTrioSlots, fleetsim::trio_epoch());
  fleetsim::FleetWorkloadParams wp;
  wp.process = fleetsim::ArrivalProcess::kDiurnal;
  wp.horizon_hours = 24 * 7;
  wp.rate_per_hour = 2.0;
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(wp);
  const std::vector<FleetRun> expected = expect_concurrent_runs_agree(
      engine, jobs, {"greedy-lowest-ci", "fcfs-local"});
  // greedy-lowest-ci starts all 326 jobs on time, fcfs-local 241.
  const auto on_time = [](const FleetRun& r) {
    return std::count(r.outcomes.wait_hours.begin(),
                      r.outcomes.wait_hours.end(), 0.0);
  };
  const auto n = static_cast<std::ptrdiff_t>(jobs.size());
  EXPECT_EQ(on_time(expected[0]), n);
  EXPECT_GT(on_time(expected[1]), 100);
  EXPECT_GT(n - on_time(expected[1]), 50);
}

// Re-entrancy stress: external threads share one pool, each mixing
// parallel_for (whose chunks nest another parallel_for, which must run
// inline on the workers) with direct submits. Every iteration must run
// exactly once — no lost or doubled work, no deadlock.
TEST(RaceStress, ThreadPoolReentrantParallelForAndSubmits) {
  constexpr int kExternal = 4;
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 16;
  constexpr int kSubmits = 32;
  ThreadPool pool(4);

  std::atomic<std::uint64_t> nested_work{0};
  std::atomic<std::uint64_t> submitted_work{0};
  std::vector<std::thread> threads;
  threads.reserve(kExternal);
  for (int t = 0; t < kExternal; ++t) {
    threads.emplace_back([&] {
      pool.parallel_for(0, kOuter, [&](std::size_t) {
        pool.parallel_for(0, kInner, [&](std::size_t) {
          nested_work.fetch_add(1, std::memory_order_relaxed);
        });
      });
      std::vector<std::future<void>> futs;
      futs.reserve(kSubmits);
      for (int i = 0; i < kSubmits; ++i) {
        futs.push_back(pool.submit(
            [&] { submitted_work.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(nested_work.load(), kExternal * kOuter * kInner);
  EXPECT_EQ(submitted_work.load(),
            static_cast<std::uint64_t>(kExternal) * kSubmits);
}

}  // namespace
}  // namespace hpcarbon::serve
