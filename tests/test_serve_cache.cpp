#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "obs/metrics.h"
#include "serve/cache.h"

namespace hpcarbon::serve {
namespace {

std::string fixture_path() {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";
}

TEST(ResultCache, HitMissAndCounters) {
  ResultCache cache(/*shards=*/2, /*byte_budget=*/1 << 16);
  EXPECT_EQ(cache.shard_count(), 2u);
  EXPECT_FALSE(cache.get(1, "k1").has_value());
  cache.put(1, "k1", "one");
  cache.put(2, "k2", "two");
  EXPECT_EQ(cache.get(1, "k1").value(), "one");
  EXPECT_EQ(cache.get(2, "k2").value(), "two");
  EXPECT_FALSE(cache.get(3, "k3").has_value());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, ResultCache::entry_cost("k1", "one") +
                         ResultCache::entry_cost("k2", "two"));
}

TEST(ResultCache, HashCollisionReadsAsMissNeverAsWrongAnswer) {
  // Two distinct canonical strings forced onto one 64-bit key: the
  // resident entry must not be served for the other question.
  ResultCache cache(1, 1 << 16);
  cache.put(42, "canonical-A", "answer-A");
  EXPECT_FALSE(cache.get(42, "canonical-B").has_value());
  EXPECT_EQ(cache.get(42, "canonical-A").value(), "answer-A");
  // A colliding put replaces the resident (latest canonical wins).
  cache.put(42, "canonical-B", "answer-B");
  EXPECT_EQ(cache.get(42, "canonical-B").value(), "answer-B");
  EXPECT_FALSE(cache.get(42, "canonical-A").has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, LruEvictionOrderUnderByteBudget) {
  // One shard, room for exactly three identical-cost entries.
  const std::string payload(100, 'x');
  const std::size_t budget = 3 * ResultCache::entry_cost("k1", payload);
  ResultCache cache(1, budget);
  cache.put(1, "k1", payload);
  cache.put(2, "k2", payload);
  cache.put(3, "k3", payload);
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch 1 so 2 becomes least-recently-used, then overflow with 4.
  EXPECT_TRUE(cache.get(1, "k1").has_value());
  cache.put(4, "k4", payload);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get(2, "k2").has_value());  // the LRU victim
  EXPECT_TRUE(cache.get(1, "k1").has_value());
  EXPECT_TRUE(cache.get(3, "k3").has_value());
  EXPECT_TRUE(cache.get(4, "k4").has_value());
  EXPECT_LE(cache.stats().bytes, budget);
}

TEST(ResultCache, UpdateAdjustsBytesAndRefreshesRecency) {
  const std::string small(10, 's');
  const std::string big(200, 'b');
  ResultCache cache(1, 1 << 16);
  cache.put(7, "k7", small);
  const std::size_t before = cache.stats().bytes;
  cache.put(7, "k7", big);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);  // replace, not insert
  EXPECT_EQ(cache.stats().bytes,
            before - ResultCache::entry_cost("k7", small) +
                ResultCache::entry_cost("k7", big));
  EXPECT_EQ(cache.get(7, "k7").value(), big);
}

TEST(ResultCache, OversizeValueIsNotCached) {
  ResultCache cache(1, 1 << 10);  // 1 KiB shard budget
  cache.put(1, "k1", "keep-me");
  cache.put(2, "k2", std::string(4096, 'z'));  // larger than the shard
  EXPECT_FALSE(cache.get(2, "k2").has_value());
  EXPECT_TRUE(cache.get(1, "k1").has_value());  // nothing evicted for it
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCache, RejectsDegenerateGeometry) {
  EXPECT_THROW(ResultCache(0, 1 << 20), Error);
  EXPECT_THROW(ResultCache(1024, 1024), Error);  // budget < overhead/shard
}

// The acceptance hammer: 8 threads against 8 shards, mixed get/put on a
// shared key space, under ASan/UBSan in CI. Counters must reconcile.
TEST(ResultCache, ShardIndependenceUnderThreadHammer) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  ResultCache cache(8, 64 << 10);
  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 255));
        const std::string canonical = "canon-" + std::to_string(key);
        if (rng.bernoulli(0.5)) {
          cache.put(key, canonical, "value-" + std::to_string(key));
        } else {
          const auto v = cache.get(key, canonical);
          if (v.has_value()) {
            // Values are immutable per key: no torn reads under races.
            EXPECT_EQ(*v, "value-" + std::to_string(key));
          }
          gets.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_LE(s.bytes, cache.byte_budget());
  EXPECT_LE(s.entries, 256u);
  EXPECT_GT(s.hits, 0u);

  // Exact ledger coherence, not just sanitizer silence: entries enter
  // only via insert and leave only via eviction, and the byte counter
  // must equal the summed cost of exactly the resident entries (probed
  // single-threaded after the hammer; probing moves hit/miss counters
  // but never bytes or entries).
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::string canonical = "canon-" + std::to_string(key);
    if (cache.get(key, canonical).has_value()) {
      ++resident;
      resident_bytes +=
          ResultCache::entry_cost(canonical, "value-" + std::to_string(key));
    }
  }
  EXPECT_EQ(resident, s.entries);
  EXPECT_EQ(resident_bytes, s.bytes);

  // Shard-balance coherence: the per-shard occupancy arrays (the
  // hpcarbon_cache_shard_* gauges) must partition the totals exactly —
  // every entry lives in exactly one shard ledger.
  ASSERT_EQ(s.shard_entries.size(), 8u);
  ASSERT_EQ(s.shard_bytes.size(), 8u);
  std::size_t shard_entry_sum = 0;
  std::size_t shard_byte_sum = 0;
  for (std::size_t i = 0; i < s.shard_entries.size(); ++i) {
    shard_entry_sum += s.shard_entries[i];
    shard_byte_sum += s.shard_bytes[i];
    EXPECT_LE(s.shard_bytes[i], cache.byte_budget()) << "shard " << i;
  }
  EXPECT_EQ(shard_entry_sum, s.entries);
  EXPECT_EQ(shard_byte_sum, s.bytes);
}

// A cache built without a registry counts into one of its own: two side
// by side never see each other's traffic (perfbench's layered replay runs
// several at once and reads each one's counts).
TEST(ResultCache, StandaloneCachesCountSeparately) {
  ResultCache a(2, 1 << 16);
  ResultCache b(2, 1 << 16);
  a.put(1, "k1", "one");
  EXPECT_TRUE(a.get(1, "k1").has_value());
  EXPECT_FALSE(b.get(1, "k1").has_value());

  const CacheStats sa = a.stats();
  EXPECT_EQ(sa.hits, 1u);
  EXPECT_EQ(sa.misses, 0u);
  EXPECT_EQ(sa.inserts, 1u);
  EXPECT_EQ(sa.entries, 1u);
  EXPECT_EQ(sa.bytes, ResultCache::entry_cost("k1", "one"));
  const CacheStats sb = b.stats();
  EXPECT_EQ(sb.hits, 0u);
  EXPECT_EQ(sb.misses, 1u);
  EXPECT_EQ(sb.inserts, 0u);
  EXPECT_EQ(sb.entries, 0u);
  EXPECT_EQ(sb.bytes, 0u);
}

// Caches built on one registry share its series, so their counts and
// occupancy add up there — and every one of them reads the sum.
TEST(ResultCache, CachesSharingARegistryAddUp) {
  obs::MetricsRegistry reg;
  ResultCache a(2, 1 << 16, &reg);
  ResultCache b(2, 1 << 16, &reg);
  a.put(1, "k1", "one");
  b.put(2, "k2", "two");
  EXPECT_TRUE(a.get(1, "k1").has_value());
  EXPECT_FALSE(b.get(1, "k1").has_value());  // b's own shards: a miss

  for (const CacheStats& s : {a.stats(), b.stats()}) {
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 2u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, ResultCache::entry_cost("k1", "one") +
                           ResultCache::entry_cost("k2", "two"));
  }
  EXPECT_EQ(reg.gauge("hpcarbon_cache_entries", "", "").value(), 2);
  EXPECT_EQ(reg.counter("hpcarbon_cache_hits_total", "", "").value(), 1u);
}

TEST(TraceStore, PresetMatchesBatchGeneratorBitForBit) {
  TraceStore store;
  const auto eso = store.preset("ESO");
  const auto batch = grid::generate_traces({grid::eso()});
  ASSERT_EQ(eso->size(), batch[0].size());
  EXPECT_EQ(eso->values(), batch[0].values());
  EXPECT_EQ(eso->time_zone().utc_offset_hours(),
            batch[0].time_zone().utc_offset_hours());

  // Second lookup: same immutable object, counted as a hit.
  const auto again = store.preset("ESO");
  EXPECT_EQ(again.get(), eso.get());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TraceStore, ImportedParsesOnceAndCachesTheNote) {
  TraceStore store;
  std::string note1, note2;
  const auto a = store.imported("ESO", fixture_path(), &note1);
  const auto b = store.imported("ESO", fixture_path(), &note2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(note1, note2);
  EXPECT_NE(note1.find("ESO <- "), std::string::npos);
  EXPECT_NE(note1.find("105120 samples"), std::string::npos) << note1;
  EXPECT_EQ(a->step_seconds(), 300.0);

  // Same path under a different region code is a distinct trace (zone
  // tagging differs).
  const auto c = store.imported("CISO", fixture_path());
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(store.size(), 2u);
}

TEST(TraceStore, ImportCapEvictsLeastRecentlyUsedImportOnly) {
  TraceStore store;
  store.set_max_imports(2);
  EXPECT_EQ(store.max_imports(), 2u);
  const auto preset = store.preset("ESO");  // never evicted
  const auto a = store.imported("ESO", fixture_path());
  const auto b = store.imported("CISO", fixture_path());
  EXPECT_EQ(store.size(), 3u);

  // Touch `a` so the CISO import is the LRU victim when KN arrives.
  store.imported("ESO", fixture_path());
  store.imported("KN", fixture_path());
  EXPECT_EQ(store.size(), 3u);  // preset + 2 imports, CISO dropped

  // The evicted trace's holders are unaffected; re-requesting re-parses.
  EXPECT_EQ(b->region_code(), "CISO");
  const std::uint64_t misses_before = store.misses();
  const auto b2 = store.imported("CISO", fixture_path());
  EXPECT_EQ(store.misses(), misses_before + 1);
  EXPECT_EQ(b2->values(), b->values());
  // Presets survive any import churn.
  EXPECT_EQ(store.preset("ESO").get(), preset.get());
}

TEST(TraceStore, StandaloneStoresCountSeparately) {
  TraceStore a;
  TraceStore b;
  a.imported("ESO", fixture_path());
  a.imported("ESO", fixture_path());
  b.imported("ESO", fixture_path());
  EXPECT_EQ(a.hits(), 1u);
  EXPECT_EQ(a.misses(), 1u);
  EXPECT_EQ(b.hits(), 0u);
  EXPECT_EQ(b.misses(), 1u);
}

TEST(TraceStore, CountsIntoTheRegistryItWasBuiltOn) {
  obs::MetricsRegistry reg;
  TraceStore a(&reg);
  TraceStore b(&reg);
  a.imported("ESO", fixture_path());
  b.imported("ESO", fixture_path());
  b.imported("ESO", fixture_path());
  EXPECT_EQ(a.misses(), 2u);  // the shared series: one parse in each store
  EXPECT_EQ(a.hits(), 1u);
  EXPECT_EQ(b.hits(), 1u);
  EXPECT_EQ(reg.counter("hpcarbon_trace_store_misses_total", "", "").value(),
            2u);
  EXPECT_EQ(reg.gauge("hpcarbon_trace_store_entries", "", "").value(), 2);

  // The process-wide store counts into the process-wide registry.
  TraceStore::global().imported("CISO", fixture_path());
  EXPECT_GE(TraceStore::global().misses(), 1u);
  EXPECT_EQ(TraceStore::global().misses(),
            obs::MetricsRegistry::global()
                .counter("hpcarbon_trace_store_misses_total", "", "")
                .value());
}

TEST(TraceStore, UnknownCodeAndMissingFileThrow) {
  TraceStore store;
  EXPECT_THROW(store.preset("ATLANTIS"), Error);
  EXPECT_THROW(store.imported("ATLANTIS", fixture_path()), Error);
  EXPECT_THROW(store.imported("ESO", "/no/such/file.csv"), Error);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace hpcarbon::serve
