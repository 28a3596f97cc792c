// src/obs unit + stress coverage: bucket goldens, bit-exact snapshot
// merging, registry determinism, both exposition formats, and a
// concurrent record-vs-scrape hammer with exact reconciliation
// (race_stress label — the TSan CI job hot-repeats this binary).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scrape.h"

namespace hpcarbon::obs {
namespace {

// ---------------------------------------------------------------------------
// Clock helpers.

TEST(ObsClock, ElapsedNsIsNonNegativeAndZeroOnBackwardsStep) {
  const std::uint64_t t0 = ticks();
  const std::uint64_t t1 = ticks();
  EXPECT_GE(elapsed_ns(t0, t1), 0u);
  EXPECT_EQ(elapsed_ns(t0, t0), 0u);
  EXPECT_EQ(elapsed_ns(t1, t0), 0u);  // backwards: clamp, never UB
}

TEST(ObsClock, BuildFingerprintNamesCompilerAndBuildType) {
  const std::string& fp = build_fingerprint();
  const bool compiler = fp.find("gcc") != std::string::npos ||
                        fp.find("clang") != std::string::npos ||
                        fp.find("unknown-compiler") != std::string::npos;
  EXPECT_TRUE(compiler) << fp;
  const bool build_type = fp.find("release") != std::string::npos ||
                          fp.find("debug") != std::string::npos;
  EXPECT_TRUE(build_type) << fp;
}

// ---------------------------------------------------------------------------
// Histogram bucket goldens: the 1-2-5 ladder with inclusive upper bounds.

TEST(ObsHistogram, BucketBoundaryGoldens) {
  // Bound values land in their own bucket (inclusive upper bound);
  // bound + 1 ns lands in the next.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(1000), 0u);     // 1 us
  EXPECT_EQ(Histogram::bucket_of(1001), 1u);
  EXPECT_EQ(Histogram::bucket_of(2000), 1u);     // 2 us
  EXPECT_EQ(Histogram::bucket_of(2001), 2u);
  EXPECT_EQ(Histogram::bucket_of(5000), 2u);     // 5 us
  EXPECT_EQ(Histogram::bucket_of(5001), 3u);
  EXPECT_EQ(Histogram::bucket_of(1000000), 9u);  // 1 ms
  EXPECT_EQ(Histogram::bucket_of(100000000000ull), 24u);  // 100 s: last finite
  EXPECT_EQ(Histogram::bucket_of(100000000001ull), 25u);  // overflow
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);

  // Every bound maps to its own index — the full ladder, exhaustively.
  for (std::size_t b = 0; b < Histogram::kBoundNs.size(); ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::kBoundNs[b]), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::kBoundNs[b] + 1), b + 1);
  }
}

TEST(ObsHistogram, RecordSnapshotAndExactSum) {
  Histogram h;
  h.record_ns(500);     // bucket 0
  h.record_ns(1500);    // bucket 1
  h.record_ns(1500);    // bucket 1
  h.record_ns(250000);  // bucket 8 (200..500 us)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 500u + 1500u + 1500u + 250000u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[8], 1u);
}

TEST(ObsHistogram, QuantileInterpolationGoldens) {
  Histogram::Snapshot empty;
  EXPECT_EQ(empty.quantile_us(0.5), 0.0);
  EXPECT_EQ(empty.mean_us(), 0.0);

  // Four observations in bucket 1 ((1, 2] us): the median interpolates
  // to the bucket midpoint, q=1 to the upper bound.
  Histogram h;
  for (int i = 0; i < 4; ++i) h.record_ns(1500);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.5), 1.5);
  EXPECT_DOUBLE_EQ(snap.quantile_us(1.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.mean_us(), 1.5);

  // A single sub-microsecond observation: bucket 0 spans (0, 1] us.
  Histogram h0;
  h0.record_ns(500);
  EXPECT_DOUBLE_EQ(h0.snapshot().quantile_us(0.5), 0.5);

  // Overflow observations report the last finite bound (1e8 us).
  Histogram over;
  over.record_ns(200000000000ull);  // 200 s
  EXPECT_DOUBLE_EQ(over.snapshot().quantile_us(0.5), 1e8);
}

TEST(ObsHistogram, MergeIsAssociativeAndBitExact) {
  Histogram ha, hb, hc;
  ha.record_ns(500);
  ha.record_ns(1500);
  hb.record_ns(7000);
  hb.record_ns(123456789);
  hc.record_ns(3);
  const auto a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

  Histogram::Snapshot ab_c = a;   // (a + b) + c
  ab_c.merge(b).merge(c);
  Histogram::Snapshot bc = b;     // a + (b + c)
  bc.merge(c);
  Histogram::Snapshot a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum_ns, a_bc.sum_ns);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, 5u);
  EXPECT_EQ(ab_c.sum_ns, 500u + 1500u + 7000u + 123456789u + 3u);
}

TEST(ObsHistogram, ConcurrentRecordingTotalsAreThreadCountInvariant) {
  // The same observation multiset recorded under 1, 2, and 4 threads
  // must snapshot to identical totals: stripes only shard contention,
  // never meaning.
  // 4200 observations total: divisible by 1, 2, and 4 threads AND by the
  // 7 distinct values below, so every configuration records the exact
  // same multiset.
  constexpr unsigned kTotalObs = 4200;
  const auto run = [](unsigned threads) {
    Histogram h;
    std::vector<std::thread> pool;
    const unsigned per_thread = kTotalObs / threads;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&h, per_thread] {
        for (unsigned i = 0; i < per_thread; ++i) {
          h.record_ns(500 + (i % 7) * 400);  // spans buckets 0..1
        }
      });
    }
    for (auto& th : pool) th.join();
    return h.snapshot();
  };
  const auto s1 = run(1), s2 = run(2), s4 = run(4);
  EXPECT_EQ(s1.count, s2.count);
  EXPECT_EQ(s1.count, s4.count);
  EXPECT_EQ(s1.sum_ns, s2.sum_ns);
  EXPECT_EQ(s1.sum_ns, s4.sum_ns);
  EXPECT_EQ(s1.buckets, s2.buckets);
  EXPECT_EQ(s1.buckets, s4.buckets);
}

// ---------------------------------------------------------------------------
// Counter / Gauge.

TEST(ObsCounter, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddSubObserveMax) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  Gauge hw;
  hw.observe_max(7);
  hw.observe_max(3);  // below the high-water mark: no-op
  EXPECT_EQ(hw.value(), 7);
  hw.observe_max(9);
  EXPECT_EQ(hw.value(), 9);
}

// ---------------------------------------------------------------------------
// Registry: idempotence, ordering, kind safety.

TEST(ObsRegistry, RegistrationIsIdempotentAndOrdered) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("test_requests_total", "family=\"a\"", "Requests.");
  Gauge& g1 = reg.gauge("test_depth", "", "Depth.");
  Histogram& h1 = reg.histogram("test_latency_us", "", "Latency.");
  // Re-registration returns the same instrument, not a fresh one.
  Counter& c2 = reg.counter("test_requests_total", "family=\"a\"", "ignored");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(&g1, &reg.gauge("test_depth", "", ""));
  EXPECT_EQ(&h1, &reg.histogram("test_latency_us", "", ""));
  EXPECT_EQ(reg.size(), 3u);

  // Same name, different labels: a distinct series, appended in order.
  reg.counter("test_requests_total", "family=\"b\"", "Requests.");
  c1.inc(3);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].id(), "test_requests_total{family=\"a\"}");
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[1].id(), "test_depth");
  EXPECT_EQ(samples[2].id(), "test_latency_us");
  EXPECT_EQ(samples[3].id(), "test_requests_total{family=\"b\"}");
}

TEST(ObsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("test_metric", "", "A counter.");
  EXPECT_THROW(reg.gauge("test_metric", "", ""), Error);
  EXPECT_THROW(reg.histogram("test_metric", "", ""), Error);
}

// ---------------------------------------------------------------------------
// Exposition formats.

TEST(ObsExport, PrometheusFormatGolden) {
  MetricsRegistry reg;
  reg.counter("test_total", "", "Things counted.").inc(7);
  reg.gauge("test_depth", "", "Queue depth.").set(-2);
  Histogram& h = reg.histogram("test_lat_us", "family=\"a\"", "Latency.");
  h.record_ns(1500);  // bucket 1
  h.record_ns(1500);
  h.record_ns(500);  // bucket 0

  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# HELP test_total Things counted.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\ntest_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\ntest_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_lat_us histogram\n"), std::string::npos);
  // Cumulative buckets: le bounds are whole microseconds; bucket 0 holds
  // 1 observation, bucket 1's cumulative count is 3, and every later
  // bucket (and +Inf) repeats the total.
  EXPECT_NE(text.find("test_lat_us_bucket{family=\"a\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_bucket{family=\"a\",le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_bucket{family=\"a\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  // _sum renders ns as us with exactly three decimals (3500 ns = 3.500).
  EXPECT_NE(text.find("test_lat_us_sum{family=\"a\"} 3.500\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_count{family=\"a\"} 3\n"),
            std::string::npos);
  // HELP/TYPE emitted once per base name.
  EXPECT_EQ(text.find("# HELP test_total"), text.rfind("# HELP test_total"));
}

TEST(ObsExport, JsonSortsKeysAndHonorsExcludePrefixes) {
  MetricsRegistry reg;
  reg.counter("zzz_total", "", "Last registered, first excluded-check.");
  reg.counter("aaa_total", "", "").inc(1);
  reg.counter("net_bytes_total", "", "Transport-dependent.");
  const json::Value v = to_json(reg.snapshot(), {"net_"});
  const std::string text = v.dump(/*sort_keys=*/true);
  EXPECT_NE(text.find("\"aaa_total\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"zzz_total\":0"), std::string::npos) << text;
  EXPECT_EQ(text.find("net_bytes_total"), std::string::npos) << text;
  // Sorted dump: aaa before zzz regardless of registration order.
  EXPECT_LT(text.find("aaa_total"), text.find("zzz_total"));
}

// ---------------------------------------------------------------------------
// Scrape endpoint + concurrent record-vs-scrape hammer (race_stress).

/// Minimal scrape client: connect, read to EOF.
std::string scrape_once(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  std::string out;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  return out;
}

TEST(ObsScrape, ServesOneExpositionPerConnection) {
  MetricsRegistry reg;
  reg.counter("test_scrape_total", "", "Scrape smoke.").inc(5);
  const std::string path =
      "/tmp/hpcarbon_test_obs_" + std::to_string(::getpid()) + ".sock";
  int pre_scrapes = 0;
  ScrapeServer server(path, &reg, [&pre_scrapes] { ++pre_scrapes; });
  server.start();
  for (int i = 0; i < 3; ++i) {
    const std::string text = scrape_once(path);
    EXPECT_NE(text.find("test_scrape_total 5\n"), std::string::npos) << text;
  }
  server.stop();
  EXPECT_EQ(pre_scrapes, 3);
}

TEST(ObsScrape, LeavesARegularFileAtThePathAlone) {
  // Only a stale socket is replaced: a regular file at the path makes
  // start() throw, and it keeps its bytes after the server is destroyed.
  const std::string path =
      "/tmp/hpcarbon_test_obs_file_" + std::to_string(::getpid());
  std::ofstream(path) << "keep me\n";
  {
    MetricsRegistry reg;
    ScrapeServer server(path, &reg);
    EXPECT_THROW(server.start(), Error);
  }
  std::ifstream in(path);
  const std::string kept((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, "keep me\n");
  ::unlink(path.c_str());
}

TEST(ObsRaceStress, ConcurrentRecordVsScrapeReconcilesExactly) {
  // Writers hammer a counter and a histogram while a reader snapshots
  // continuously. Per-reader snapshot counts must be monotone
  // (stripes only grow and one reader re-reads each stripe in order),
  // and the final quiesced snapshot must reconcile exactly. The overlap
  // holds by construction: the writers start after the reader's first
  // snapshot, and each writes its second half only after the reader has
  // taken another one since its first half.
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  MetricsRegistry reg;
  Counter& events = reg.counter("race_events_total", "", "Events.");
  Histogram& lat = reg.histogram("race_lat_us", "", "Latency.");

  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  // Spins until the reader has taken more than `n` snapshots (or has
  // stopped on a failed assertion, so a failure cannot hang the test).
  auto await_snapshot_after = [&](std::uint64_t n) {
    while (snapshots_taken.load() <= n && !reader_done.load()) {
      std::this_thread::yield();
    }
  };
  auto read_until_stopped = [&] {
    std::uint64_t last_count = 0;
    std::uint64_t last_events = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto samples = reg.snapshot();
      ASSERT_EQ(samples.size(), 2u);
      const auto ev = static_cast<std::uint64_t>(samples[0].value);
      const auto& snap = samples[1].hist;
      EXPECT_GE(ev, last_events);
      EXPECT_GE(snap.count, last_count);
      EXPECT_LE(ev, kWriters * kPerWriter);
      last_events = ev;
      last_count = snap.count;
      snapshots_taken.fetch_add(1);
    }
  };
  std::thread reader([&] {
    read_until_stopped();
    reader_done.store(true);
  });

  await_snapshot_after(0);
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        if (i == kPerWriter / 2) await_snapshot_after(snapshots_taken.load());
        events.inc();
        lat.record_ns(500 + (i % 10) * 300);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GE(snapshots_taken.load(), 2u);

  // Quiesced: every write is visible and the totals are exact.
  constexpr std::uint64_t kTotal = kWriters * kPerWriter;
  EXPECT_EQ(events.value(), kTotal);
  const auto snap = lat.snapshot();
  EXPECT_EQ(snap.count, kTotal);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerWriter; ++i) {
    expected_sum += kWriters * (500 + (i % 10) * 300);
  }
  EXPECT_EQ(snap.sum_ns, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTotal);
}

}  // namespace
}  // namespace hpcarbon::obs
