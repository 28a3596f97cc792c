// Process-wide observability core: counters, gauges, and mergeable
// latency histograms behind one named registry.
//
// The serving stack (src/serve engine, src/net front-end, the ThreadPool,
// the mc/fleetsim compute kernels) needs daemon-grade visibility —
// per-family latency distributions, cache behavior, overload shedding —
// without perturbing the two contracts the stack is built on:
//
//  * Determinism: responses stay pure functions of the canonical request.
//    Metrics are observed *around* the hot path and surfaced only through
//    the {"op":"stats"} / {"op":"metrics"} control requests and the
//    Prometheus exposition (obs/export.h), which are sequence points
//    excluded from the batch==pipe==socket byte-identity contract.
//  * Speed: the warm serve path answers in under 2 us, so instrumentation
//    must cost nanoseconds. Every recording operation is a handful of
//    relaxed atomic adds on a per-thread stripe — no locks, no
//    allocation; cross-stripe totals are summed only at scrape time. The
//    registry's own mutex is touched at registration and scrape only,
//    never per request.
//
// Every count has one home. Subsystems record into a registry at the
// moment the event happens — the result cache and trace store on the one
// they were built on, the socket front-end on its server's — and the
// {"op":"stats"} / {"op":"metrics"} control requests and the scrape
// socket all read that registry's snapshot; nothing is copied in later.
//
// Registration is idempotent by (name, labels) and insertion-ordered, so
// every front-end that registers the same instruments in the same
// construction order exposes the same metric set — the property behind
// the byte-stable idle {"op":"metrics"} snapshot across transports.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"

namespace hpcarbon::obs {

// --------------------------------------------------------------------------
// Fast timestamps.
//
// The warm serve path budget for instrumentation is tens of nanoseconds,
// which a steady_clock::now() pair alone would exhaust on some libstdc++
// builds. On x86-64, ticks() reads the TSC directly (constant-rate and
// monotonic on every production core this targets) and elapsed_ns
// converts through a once-calibrated tick period; elsewhere ticks() falls
// back to steady_clock nanoseconds with a period of 1.

namespace detail {
/// Nanoseconds per ticks() unit, calibrated against steady_clock before
/// main() (1 on the steady_clock fallback).
extern const double g_ns_per_tick;
/// Small dense per-thread stripe ids (0,1,2,...), assigned on first use.
unsigned alloc_stripe_index();
inline unsigned stripe_index() {
  thread_local const unsigned idx = alloc_stripe_index();
  return idx;
}
}  // namespace detail

#if defined(__x86_64__) || defined(_M_X64)
inline std::uint64_t ticks() { return __builtin_ia32_rdtsc(); }
#else
std::uint64_t ticks();  // steady_clock::now() in nanoseconds
#endif

/// Nanoseconds between two ticks() readings (0 if the clock stepped
/// backwards across cores — recorded as the smallest bucket, never UB).
inline std::uint64_t elapsed_ns(std::uint64_t t0, std::uint64_t t1) {
  if (t1 <= t0) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(t1 - t0) *
                                    detail::g_ns_per_tick);
}

/// "<compiler> <version> <build-type>" (e.g. "gcc 12.2.0 release"): the
/// build fingerprint the stats op and the bench trajectory both report.
const std::string& build_fingerprint();

// --------------------------------------------------------------------------
// Instruments. All operations are thread-safe; recording is lock-free
// (relaxed atomics on a per-thread stripe) and scraping sums the stripes.

/// Monotonic event count. Striped so concurrent writers on different
/// threads do not bounce one cache line.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    stripes_[detail::stripe_index() % kStripes].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over stripes (one relaxed pass; exact once writers quiesce).
  std::uint64_t value() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// Instantaneous level (queue depth, active connections, occupancy) or
/// high-water mark (observe_max).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  /// Monotonic max (lock-free CAS loop); for high-water marks.
  void observe_max(std::int64_t v);
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log-scale latency histogram: a 1-2-5 ladder from 1 us to
/// 1e8 us (100 s) — 25 finite bounds plus an overflow bucket. Bucket
/// counts and the exact nanosecond sum are unsigned integers, so merging
/// snapshots (across stripes, threads, or processes) is associative and
/// bit-exact: any merge order yields the same totals.
class Histogram {
 public:
  /// 25 finite upper bounds + 1 overflow.
  static constexpr std::size_t kBuckets = 26;
  /// Inclusive upper bounds of the finite buckets, in nanoseconds:
  /// {1,2,5} x 10^k us for k = 0..7, then 1e8 us.
  static constexpr std::array<std::uint64_t, kBuckets - 1> kBoundNs = {
      1000ull,        2000ull,        5000ull,         // 1, 2, 5 us
      10000ull,       20000ull,       50000ull,        // 10, 20, 50 us
      100000ull,      200000ull,      500000ull,       // 100, 200, 500 us
      1000000ull,     2000000ull,     5000000ull,      // 1, 2, 5 ms
      10000000ull,    20000000ull,    50000000ull,     // 10, 20, 50 ms
      100000000ull,   200000000ull,   500000000ull,    // 100, 200, 500 ms
      1000000000ull,  2000000000ull,  5000000000ull,   // 1, 2, 5 s
      10000000000ull, 20000000000ull, 50000000000ull,  // 10, 20, 50 s
      100000000000ull,                                 // 100 s
  };

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Index of the bucket recording `ns` (kBuckets - 1 = overflow). Warm
  /// serve latencies sit in the first few buckets, so the linear scan
  /// exits after 2-3 comparisons on the hot path.
  static std::size_t bucket_of(std::uint64_t ns) {
    std::size_t i = 0;
    while (i < kBoundNs.size() && ns > kBoundNs[i]) ++i;
    return i;
  }

  /// Record one observation: two relaxed adds on this thread's stripe.
  /// The total count is derived from the bucket counts at snapshot time,
  /// so the hot path pays for exactly bucket + sum.
  void record_ns(std::uint64_t ns) {
    Stripe& s = stripes_[detail::stripe_index() % kStripes];
    s.buckets[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    s.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Merged view of all stripes. Integer fields only — merge() and the
  /// stripe sum are associative and exact.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};  // per-bucket counts
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;

    Snapshot& merge(const Snapshot& other);
    /// Deterministic quantile estimate in microseconds (linear
    /// interpolation inside the owning bucket; 0 when empty; the last
    /// finite bound for the overflow bucket).
    double quantile_us(double q) const;
    /// Exact mean in microseconds (0 when empty).
    double mean_us() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_ns) /
                              (1000.0 * static_cast<double>(count));
    }
  };

  Snapshot snapshot() const;

 private:
  static constexpr std::size_t kStripes = 4;
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

// --------------------------------------------------------------------------
// Registry.

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// One metric's scrape-time value, in registration order (obs/export.h
/// renders vectors of these as Prometheus text or a JSON object).
struct MetricSample {
  std::string name;    // Prometheus-style base name, e.g. hpcarbon_..._total
  std::string labels;  // the text inside {...}, e.g. family="sched"; may be ""
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t value = 0;       // kCounter / kGauge
  Histogram::Snapshot hist;     // kHistogram

  /// The full series id: `name` or `name{labels}`.
  std::string id() const;
};

/// Named instrument store. Registration is idempotent per (name, labels)
/// — re-registering returns the existing instrument (a kind mismatch
/// throws hpcarbon::Error) — and snapshot() reports instruments in
/// registration order. Instruments live as long as the registry and are
/// handed out by reference: callers resolve them once (at construction)
/// and record lock-free ever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry: the default sink of every subsystem. Tests
  /// that need isolated counts construct their own instance and pass it
  /// through ServeOptions / ServerOptions and the ResultCache /
  /// TraceStore constructors.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name, std::string_view labels,
                   std::string_view help) HPCARBON_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, std::string_view labels,
               std::string_view help) HPCARBON_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, std::string_view labels,
                       std::string_view help) HPCARBON_EXCLUDES(mu_);

  /// Scrape: every instrument's current value, registration-ordered.
  std::vector<MetricSample> snapshot() const HPCARBON_EXCLUDES(mu_);

  /// Registered instrument count.
  std::size_t size() const HPCARBON_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string name, labels, help;
    MetricKind kind = MetricKind::kCounter;
    std::size_t index = 0;  // into the kind's deque
  };

  mutable AnnotatedMutex mu_;
  std::vector<Entry> order_ HPCARBON_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::size_t> by_id_ HPCARBON_GUARDED_BY(mu_);
  // Deques: growth never moves existing elements, so handed-out
  // references stay valid for the registry's lifetime.
  std::deque<Counter> counters_ HPCARBON_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ HPCARBON_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ HPCARBON_GUARDED_BY(mu_);
};

}  // namespace hpcarbon::obs
