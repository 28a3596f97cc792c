// Result + trace caching: the memory layer of the serve subsystem.
//
// Two caches with different lifetimes and shapes:
//
//  * ResultCache — a sharded LRU over rendered result documents, keyed by
//    the canonical FNV-1a/64 request hash (serve/request.h). N independent
//    mutex-guarded shards (key-selected) keep concurrent lookups from
//    serializing on one lock; the byte budget is split evenly across
//    shards and enforced by LRU eviction per shard.
//
//  * TraceStore — a process-wide store of immutable, fully-built regions
//    behind shared_ptr. Generating a preset region's synthetic year and
//    parsing a --trace-csv file both cost orders of magnitude more than
//    any single query, and so do the values every query of a region
//    derives from its trace alone. The store builds each entry exactly
//    once, outside its lock, and hands out one shared StoredTrace: the
//    already-prefix-summed trace, its grid::RegionSummary (which the
//    trace family answers from), and, for a preset, its
//    sched::PreparedRegion (the UTC year, its PUE-weighted integrator,
//    its annual median and its diurnal forecast, which every sched and
//    fleetsim trio shares). Nothing is copied per query. A preset holds
//    three year-long step series (local, UTC, weighted), about 420 KB
//    hourly, and the forecast's two hourly tables, about 140 KB, so the
//    seven presets are about 3.9 MB; an import holds its trace and
//    summary. The CLI's traces_for (scenario_runner) and every serve
//    query pull traces through it, so multi-section sweeps and repeated
//    queries stop re-parsing identical inputs.
//
// Both count hits, misses, inserts, evictions and occupancy as each event
// happens, into the registry they were built on (the hpcarbon_cache_* and
// hpcarbon_trace_store_* series) and nowhere else. Built without one,
// each owns a private registry, so its stats() / hits() / misses() see
// only its own traffic; caches and stores sharing a registry add up
// there, and a destroyed one's residents stay counted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "grid/analysis.h"
#include "grid/trace.h"
#include "obs/metrics.h"
#include "sched/job.h"

namespace hpcarbon::serve {

/// The cache's registry instruments, read once (exact once writers
/// quiesce), plus the per-shard occupancy breakdown — totals alone hide
/// shard imbalance, which an operator tuning --shards needs to see.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  /// Parallel per-shard views, indexed by shard (entries == sum of
  /// shard_entries, bytes == sum of shard_bytes).
  std::vector<std::size_t> shard_entries;
  std::vector<std::size_t> shard_bytes;
};

class ResultCache {
 public:
  /// `byte_budget` is split evenly across `shards`; both must be >= 1.
  /// Counts go to `registry`, which must outlive the cache; nullptr gives
  /// the cache a registry of its own.
  explicit ResultCache(std::size_t shards = 8,
                       std::size_t byte_budget = 8u << 20,
                       obs::MetricsRegistry* registry = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Cached value for the canonical key, refreshing its LRU position;
  /// nullopt on miss. The full canonical string is verified on a hash
  /// hit — FNV-1a/64 is not collision-proof, and a collision must read
  /// as a miss, never as a confidently wrong answer. Counts one hit or
  /// one miss.
  std::optional<std::string> get(std::uint64_t key,
                                 std::string_view canonical);

  /// get(), appended: on a hit the cached value is appended to `out`
  /// under the shard lock (no intermediate std::string) and true is
  /// returned; on a miss `out` is untouched. The serve hot path embeds
  /// the cached result mid-response this way, so a warm lookup copies
  /// the bytes exactly once — into the response buffer.
  bool get_append(std::uint64_t key, std::string_view canonical,
                  std::string& out);

  /// get_append for a caller that looks again after a miss: a hit counts
  /// and refreshes recency exactly as get_append's does, but a miss counts
  /// nothing — the caller's second lookup counts whatever it finds. The
  /// socket IO thread answers hits this way and leaves misses to a worker,
  /// so each request still counts one lookup.
  bool probe_append(std::uint64_t key, std::string_view canonical,
                    std::string& out);

  /// Insert or refresh (a hash collision replaces the resident entry —
  /// latest canonical wins). Evicts least-recently-used entries of the
  /// shard until it fits its budget. A value whose own cost exceeds the
  /// shard budget is not cached at all (it would evict the entire shard
  /// for a one-shot entry).
  void put(std::uint64_t key, std::string_view canonical, std::string value);

  CacheStats stats() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t byte_budget() const { return budget_per_shard_ * shards_.size(); }

  /// Budgeted cost of one entry: canonical + value bytes + bookkeeping
  /// overhead.
  static std::size_t entry_cost(std::string_view canonical,
                                std::string_view value);

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string canonical;
    std::string value;
  };
  struct Shard {
    Shard(obs::Gauge& entries, obs::Gauge& bytes)
        : entries_gauge(entries), bytes_gauge(bytes) {}
    obs::Gauge& entries_gauge;  // hpcarbon_cache_shard_entries{shard=i}
    obs::Gauge& bytes_gauge;    // hpcarbon_cache_shard_bytes{shard=i}
    mutable AnnotatedMutex mu;
    /// Front = most recently used. Every field below holds the shard
    /// invariant (index points into lru; bytes == sum of entry costs,
    /// the tally the budget is enforced on) only while mu is held.
    std::list<Entry> lru HPCARBON_GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
        HPCARBON_GUARDED_BY(mu);
    std::size_t bytes HPCARBON_GUARDED_BY(mu) = 0;
  };
  struct Metrics {  // the cache-wide hpcarbon_cache_* series
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Counter& inserts;
    obs::Gauge& entries;
    obs::Gauge& bytes;
  };

  static Metrics bind_metrics(obs::MetricsRegistry& r);
  Shard& shard_of(std::uint64_t key);
  /// One entry of `cost` bytes enters (`sign` +1) or leaves (-1) shard
  /// `s`: the budget tally and the occupancy gauges move together.
  void occupy(Shard& s, int sign, std::size_t cost) HPCARBON_REQUIRES(s.mu);

  std::unique_ptr<obs::MetricsRegistry> own_registry_;  // built without one
  Metrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t budget_per_shard_;
};

/// One stored region, immutable once built: everything a query reads
/// that depends on the trace alone.
struct StoredTrace {
  grid::CarbonIntensityTrace trace;  // local time, as generated or imported
  grid::RegionSummary summary;       // grid::summarize(trace)
  sched::RegionPtr prepared;         // presets only; null for imports
  std::string note;                  // imports only: "ESO <- f.csv: ..."
};

class TraceStore {
 public:
  using StoredPtr = std::shared_ptr<const StoredTrace>;

  /// Counts go to `registry`, which must outlive the store; nullptr
  /// gives the store a registry of its own.
  explicit TraceStore(obs::MetricsRegistry* registry = nullptr);
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Process-wide store shared by the CLI tools and serve engines; it
  /// counts into obs::MetricsRegistry::global().
  static TraceStore& global();

  /// The hpcarbon_trace_store_* series, registered idempotently.
  struct Metrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Gauge& entries;
  };
  static Metrics register_metrics(obs::MetricsRegistry& registry);

  /// The preset of a Table 3 region code, built once: its generated
  /// synthetic trace (bit-identical to grid::generate_traces — the
  /// simulator is deterministic per RegionSpec), its summary and its
  /// prepared region. Throws hpcarbon::Error for unknown codes.
  StoredPtr preset(const std::string& code);

  /// The import of (region code, CSV path), built once: the trace read and
  /// parsed with rows taken as the region's local time at native cadence,
  /// its summary, and as `note` the human-readable import summary ("ESO <-
  /// f.csv: ..."). No prepared region: trios run on presets. Throws on
  /// unknown codes and on any import error.
  StoredPtr imported(const std::string& code, const std::string& path);

  /// Traces currently held.
  std::size_t size() const;
  /// Lookup counters (a miss is a generate/parse), read from the
  /// registry the store counts into.
  std::uint64_t hits() const { return metrics_.hits.value(); }
  std::uint64_t misses() const { return metrics_.misses.value(); }

  /// Cap on *imported* traces held at once (presets are bounded by the
  /// seven Table 3 regions and never evicted). When a new import would
  /// exceed the cap, the least-recently-used import is dropped — holders
  /// of its shared_ptr are unaffected; the next request for it re-parses.
  /// Bounds daemon memory when clients name many distinct trace_csv
  /// paths. Default 32 (a year of 5-minute data is ~1.7 MB shared).
  void set_max_imports(std::size_t n);
  std::size_t max_imports() const;

 private:
  struct Entry {
    StoredPtr stored;
    bool is_import = false;
    std::uint64_t last_use = 0;  // recency stamp for import eviction
  };

  /// The resident entry under `key`, counted as a hit; nullptr if absent.
  StoredPtr find_locked(const std::string& key) HPCARBON_REQUIRES(mu_);
  /// Insert `entry` under `key` (a miss) unless a racing first touch did.
  StoredPtr insert_locked(const std::string& key, Entry entry)
      HPCARBON_REQUIRES(mu_);
  void evict_imports_locked() HPCARBON_REQUIRES(mu_);

  std::unique_ptr<obs::MetricsRegistry> own_registry_;  // built without one
  Metrics metrics_;
  mutable AnnotatedMutex mu_;
  std::map<std::string, Entry> entries_ HPCARBON_GUARDED_BY(mu_);
  std::uint64_t use_clock_ HPCARBON_GUARDED_BY(mu_) = 0;
  std::size_t max_imports_ HPCARBON_GUARDED_BY(mu_) = 32;
};

}  // namespace hpcarbon::serve
