#include "serve/cache.h"

#include "core/error.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"

namespace hpcarbon::serve {

// --- ResultCache ------------------------------------------------------------

namespace {

/// Approximate per-entry bookkeeping (list node + hash slot + key).
constexpr std::size_t kEntryOverhead = 64;

}  // namespace

ResultCache::Metrics ResultCache::bind_metrics(obs::MetricsRegistry& r) {
  return {r.counter("hpcarbon_cache_hits_total", "", "ResultCache hits."),
          r.counter("hpcarbon_cache_misses_total", "", "ResultCache misses."),
          r.counter("hpcarbon_cache_evictions_total", "",
                    "ResultCache evictions."),
          r.counter("hpcarbon_cache_inserts_total", "",
                    "ResultCache inserts."),
          r.gauge("hpcarbon_cache_entries", "", "Cached results resident."),
          r.gauge("hpcarbon_cache_bytes", "", "Cached result bytes resident.")};
}

ResultCache::ResultCache(std::size_t shards, std::size_t byte_budget,
                         obs::MetricsRegistry* registry)
    : own_registry_(registry ? nullptr
                             : std::make_unique<obs::MetricsRegistry>()),
      metrics_(bind_metrics(registry ? *registry : *own_registry_)) {
  HPC_REQUIRE(shards >= 1, "ResultCache needs at least one shard");
  HPC_REQUIRE(byte_budget >= shards * kEntryOverhead,
              "ResultCache byte budget too small for its shard count");
  budget_per_shard_ = byte_budget / shards;
  obs::MetricsRegistry& reg = registry ? *registry : *own_registry_;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // One statement each: series order is part of the exposition.
    const std::string l = "shard=\"" + std::to_string(i) + "\"";
    obs::Gauge& entries = reg.gauge("hpcarbon_cache_shard_entries", l,
                                    "Cached results resident, by shard.");
    obs::Gauge& bytes = reg.gauge("hpcarbon_cache_shard_bytes", l,
                                  "Cached result bytes, by shard.");
    shards_.push_back(std::make_unique<Shard>(entries, bytes));
  }
}

std::size_t ResultCache::entry_cost(std::string_view canonical,
                                    std::string_view value) {
  return canonical.size() + value.size() + kEntryOverhead;
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t key) {
  // The canonical key is already FNV-mixed; the low bits select evenly.
  return *shards_[key % shards_.size()];
}

void ResultCache::occupy(Shard& s, int sign, std::size_t cost) {
  const std::int64_t bytes = sign * static_cast<std::int64_t>(cost);
  s.bytes = sign > 0 ? s.bytes + cost : s.bytes - cost;
  s.entries_gauge.add(sign);
  s.bytes_gauge.add(bytes);
  metrics_.entries.add(sign);
  metrics_.bytes.add(bytes);
}

std::optional<std::string> ResultCache::get(std::uint64_t key,
                                            std::string_view canonical) {
  std::string value;
  if (!get_append(key, canonical, value)) return std::nullopt;
  return value;
}

bool ResultCache::get_append(std::uint64_t key, std::string_view canonical,
                             std::string& out) {
  if (probe_append(key, canonical, out)) return true;
  metrics_.misses.inc();
  return false;
}

bool ResultCache::probe_append(std::uint64_t key, std::string_view canonical,
                               std::string& out) {
  Shard& s = shard_of(key);
  MutexLock lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end() || it->second->canonical != canonical) {
    return false;  // absent, or a hash collision: never serve it
  }
  metrics_.hits.inc();
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  out += it->second->value;
  return true;
}

void ResultCache::put(std::uint64_t key, std::string_view canonical,
                      std::string value) {
  const std::size_t cost = entry_cost(canonical, value);
  Shard& s = shard_of(key);
  MutexLock lock(s.mu);
  if (cost > budget_per_shard_) return;  // would evict the whole shard
  const auto it = s.index.find(key);
  if (it != s.index.end()) {  // replace: the old value leaves, the new enters
    occupy(s, -1, entry_cost(it->second->canonical, it->second->value));
    it->second->canonical = std::string(canonical);
    it->second->value = std::move(value);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
  } else {
    s.lru.push_front(Entry{key, std::string(canonical), std::move(value)});
    s.index[key] = s.lru.begin();
    metrics_.inserts.inc();
  }
  occupy(s, 1, cost);
  while (s.bytes > budget_per_shard_) {
    const Entry& victim = s.lru.back();
    occupy(s, -1, entry_cost(victim.canonical, victim.value));
    s.index.erase(victim.key);
    s.lru.pop_back();
    metrics_.evictions.inc();
  }
}

CacheStats ResultCache::stats() const {
  CacheStats total{metrics_.hits.value(), metrics_.misses.value(),
                   metrics_.evictions.value(), metrics_.inserts.value(),
                   static_cast<std::size_t>(metrics_.entries.value()),
                   static_cast<std::size_t>(metrics_.bytes.value()), {}, {}};
  for (const auto& shard : shards_) {
    total.shard_entries.push_back(
        static_cast<std::size_t>(shard->entries_gauge.value()));
    total.shard_bytes.push_back(
        static_cast<std::size_t>(shard->bytes_gauge.value()));
  }
  return total;
}

// --- TraceStore -------------------------------------------------------------

TraceStore::Metrics TraceStore::register_metrics(obs::MetricsRegistry& r) {
  return {r.counter("hpcarbon_trace_store_hits_total", "", "TraceStore hits."),
          r.counter("hpcarbon_trace_store_misses_total", "",
                    "TraceStore misses."),
          r.gauge("hpcarbon_trace_store_entries", "", "Traces resident.")};
}

TraceStore::TraceStore(obs::MetricsRegistry* registry)
    : own_registry_(registry ? nullptr
                             : std::make_unique<obs::MetricsRegistry>()),
      metrics_(register_metrics(registry ? *registry : *own_registry_)) {}

TraceStore& TraceStore::global() {
  static TraceStore store(&obs::MetricsRegistry::global());
  return store;
}

TraceStore::TracePtr TraceStore::find_locked(const std::string& key,
                                             std::string* note) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  metrics_.hits.inc();
  it->second.last_use = ++use_clock_;
  if (note != nullptr) *note = it->second.note;
  return it->second.trace;
}

TraceStore::TracePtr TraceStore::insert_locked(const std::string& key,
                                               Entry entry,
                                               std::string* note) {
  // Two racing first touches build identical traces; the first insert
  // wins and the second counts as a hit on it.
  if (TracePtr resident = find_locked(key, note)) return resident;
  metrics_.misses.inc();
  metrics_.entries.add(1);
  entry.last_use = ++use_clock_;
  if (note != nullptr) *note = entry.note;
  return entries_.emplace(key, std::move(entry)).first->second.trace;
}

TraceStore::TracePtr TraceStore::preset(const std::string& code) {
  const std::string key = "preset:" + code;
  {
    MutexLock lock(mu_);
    if (TracePtr hit = find_locked(key, nullptr)) return hit;
  }
  const grid::RegionSpec spec = grid::require_region(code);
  // Generate outside the lock: a year-long synthetic trace is the
  // expensive part, and concurrent first-touch generation of *different*
  // regions should overlap. Two racing generations of the same code
  // produce identical traces (the simulator is deterministic per spec).
  auto trace = std::make_shared<const grid::CarbonIntensityTrace>(
      grid::GridSimulator(spec).run());
  MutexLock lock(mu_);
  return insert_locked(key, Entry{std::move(trace), {}, false, 0}, nullptr);
}

TraceStore::TracePtr TraceStore::imported(const std::string& code,
                                          const std::string& path,
                                          std::string* note) {
  const std::string key = "import:" + code + "=" + path;
  {
    MutexLock lock(mu_);
    if (TracePtr hit = find_locked(key, note)) return hit;
  }
  grid::ImportOptions io;
  io.tz = grid::require_region(code).tz;  // rows are the region's local time
  grid::ImportReport report;
  auto trace = std::make_shared<const grid::CarbonIntensityTrace>(
      grid::import_trace_file(path, code, io, &report));
  Entry entry{std::move(trace),
              code + " <- " + path + ": " + report.to_string(), true, 0};
  MutexLock lock(mu_);
  TracePtr result = insert_locked(key, std::move(entry), note);
  evict_imports_locked();
  return result;
}

void TraceStore::evict_imports_locked() {
  // Presets never evict (seven at most, shared by every consumer); the
  // least-recently-used imports go first. Holders of an evicted trace's
  // shared_ptr keep a valid object.
  while (true) {
    std::size_t imports = 0;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.is_import) continue;
      ++imports;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (imports <= max_imports_ || victim == entries_.end()) return;
    entries_.erase(victim);
    metrics_.entries.sub(1);
  }
}

void TraceStore::set_max_imports(std::size_t n) {
  MutexLock lock(mu_);
  max_imports_ = n;
  evict_imports_locked();
}

std::size_t TraceStore::max_imports() const {
  MutexLock lock(mu_);
  return max_imports_;
}

std::size_t TraceStore::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace hpcarbon::serve
