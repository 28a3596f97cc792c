#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <string>

#include "core/error.h"

namespace hpcarbon::obs {

namespace detail {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__) || defined(_M_X64)
/// Calibrate the TSC period against steady_clock over a ~1 ms window.
/// Runs once before main(); constant-rate ("invariant") TSC is assumed,
/// which holds on every post-2008 x86-64 part. Drift against the OS
/// clock over a scrape interval is irrelevant here — the TSC only ever
/// measures sub-second durations that land in log-scale buckets.
double calibrate_ns_per_tick() {
  const std::uint64_t w0 = steady_ns();
  const std::uint64_t t0 = ticks();
  while (steady_ns() - w0 < 1000000) {  // 1 ms spin
  }
  const std::uint64_t t1 = ticks();
  const std::uint64_t w1 = steady_ns();
  if (t1 <= t0) return 1.0;  // non-monotonic TSC: degrade to 1 ns/tick
  return static_cast<double>(w1 - w0) / static_cast<double>(t1 - t0);
}
#endif

}  // namespace

#if defined(__x86_64__) || defined(_M_X64)
const double g_ns_per_tick = calibrate_ns_per_tick();
#else
const double g_ns_per_tick = 1.0;
#endif

unsigned alloc_stripe_index() {
  static std::atomic<unsigned> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

#if !(defined(__x86_64__) || defined(_M_X64))
std::uint64_t ticks() { return detail::steady_ns(); }
#endif

const std::string& build_fingerprint() {
  static const std::string fp = [] {
#if defined(__clang__)
    std::string compiler = std::string("clang ") + __clang_version__;
    const std::size_t paren = compiler.find(" (");
    if (paren != std::string::npos) compiler.resize(paren);
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown-compiler";
#endif
#ifdef NDEBUG
    return compiler + " release";
#else
    return compiler + " debug";
#endif
  }();
  return fp;
}

// --------------------------------------------------------------------------
// Counter

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

// --------------------------------------------------------------------------
// Gauge

void Gauge::observe_max(std::int64_t v) {
  std::int64_t seen = v_.load(std::memory_order_relaxed);
  while (v > seen &&
         !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

// --------------------------------------------------------------------------
// Histogram

Histogram::Snapshot& Histogram::Snapshot::merge(const Snapshot& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum_ns += other.sum_ns;
  return *this;
}

double Histogram::Snapshot::quantile_us(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The smallest rank r (1-based) with cumulative count >= q * count,
  // then linear interpolation across the owning bucket's bounds.
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    const double cum_before = static_cast<double>(cum);
    cum += in_bucket;
    if (static_cast<double>(cum) < rank) continue;
    if (b == kBuckets - 1) {  // overflow: no finite upper bound
      return static_cast<double>(kBoundNs.back()) / 1000.0;
    }
    const double lo =
        b == 0 ? 0.0 : static_cast<double>(kBoundNs[b - 1]) / 1000.0;
    const double hi = static_cast<double>(kBoundNs[b]) / 1000.0;
    const double fraction =
        (rank - cum_before) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * (fraction < 0.0 ? 0.0 : fraction);
  }
  return static_cast<double>(kBoundNs.back()) / 1000.0;  // unreachable
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  for (const Stripe& s : stripes_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = s.buckets[b].load(std::memory_order_relaxed);
      out.buckets[b] += n;
      out.count += n;
    }
    out.sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  return out;
}

// --------------------------------------------------------------------------
// Registry

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string MetricSample::id() const {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

std::string series_id(std::string_view name, std::string_view labels) {
  std::string id(name);
  if (!labels.empty()) {
    id.push_back('{');
    id.append(labels);
    id.push_back('}');
  }
  return id;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels,
                                  std::string_view help) {
  MutexLock lock(mu_);
  const std::string id = series_id(name, labels);
  if (const auto it = by_id_.find(id); it != by_id_.end()) {
    const Entry& e = order_[it->second];
    if (e.kind != MetricKind::kCounter) {
      throw Error("metric '" + id + "' already registered as " +
                  to_string(e.kind));
    }
    return counters_[e.index];
  }
  by_id_.emplace(id, order_.size());
  order_.push_back({std::string(name), std::string(labels), std::string(help),
                    MetricKind::kCounter, counters_.size()});
  counters_.emplace_back();
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels,
                              std::string_view help) {
  MutexLock lock(mu_);
  const std::string id = series_id(name, labels);
  if (const auto it = by_id_.find(id); it != by_id_.end()) {
    const Entry& e = order_[it->second];
    if (e.kind != MetricKind::kGauge) {
      throw Error("metric '" + id + "' already registered as " +
                  to_string(e.kind));
    }
    return gauges_[e.index];
  }
  by_id_.emplace(id, order_.size());
  order_.push_back({std::string(name), std::string(labels), std::string(help),
                    MetricKind::kGauge, gauges_.size()});
  gauges_.emplace_back();
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view labels,
                                      std::string_view help) {
  MutexLock lock(mu_);
  const std::string id = series_id(name, labels);
  if (const auto it = by_id_.find(id); it != by_id_.end()) {
    const Entry& e = order_[it->second];
    if (e.kind != MetricKind::kHistogram) {
      throw Error("metric '" + id + "' already registered as " +
                  to_string(e.kind));
    }
    return histograms_[e.index];
  }
  by_id_.emplace(id, order_.size());
  order_.push_back({std::string(name), std::string(labels), std::string(help),
                    MetricKind::kHistogram, histograms_.size()});
  histograms_.emplace_back();
  return histograms_.back();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(order_.size());
  for (const Entry& e : order_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.help = e.help;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<std::int64_t>(counters_[e.index].value());
        break;
      case MetricKind::kGauge:
        s.value = gauges_[e.index].value();
        break;
      case MetricKind::kHistogram:
        s.hist = histograms_[e.index].snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  return order_.size();
}

}  // namespace hpcarbon::obs
