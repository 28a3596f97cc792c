// Network front-end load generator: what `hpcarbon serve --listen` costs
// over real sockets, with an in-process epoll server and the shared
// pinned-seed Zipf mix (src/net/loadgen — the same stream serve-load
// replays engine-side, so the delta between the two trajectories is the
// transport).
//
// Phases:
//
//   scale — closed-loop saturation sweep over connection counts (each
//           connection keeps `depth` requests pipelined; send-on-response)
//           on a warm cache. The peak is the pinned saturation
//           throughput; the sweep is the connection-concurrency scaling
//           story (1 .. >=1000 concurrent sockets on loopback TCP).
//   open  — open-loop latency at a fixed offered rate: seeded Poisson
//           arrivals sent on schedule regardless of outstanding
//           responses, latency measured from the *scheduled* send time
//           (no coordinated omission). p50 is pinned; p99/p999/shed are
//           reported.
//   shed  — overload demonstration: a 1-worker server with a tiny
//           in-flight budget, a cold expensive scheduler query at the
//           head of the line, and a pipelined burst behind it — the
//           bounded queue must answer the overflow with explicit shed
//           responses, not latency collapse.
//
// The server runs in-process (its own thread, workers=0 inline mode for
// the measurement phases: on a single-core host the IO thread answering
// inline is the saturation shape) on 127.0.0.1:<ephemeral>.
//
// Flags beyond the shared bench set: --conns N (top of the scaling
// sweep, 1..1048576), --depth D (pipelining depth per connection,
// 1..1048576), --rate R (open-loop offered req/s, (0, 1e6]).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/table.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "reporter.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

constexpr std::uint64_t kArrivalSeed = 23;  // pinned, like the mix seeds

/// Upper bound of --conns and --depth: far past any fd limit, and small
/// enough that neither the fd budget (conns + 64) nor the x8 connection
/// ladder can overflow.
constexpr double kMaxCount = 1 << 20;
/// Upper bound of --rate: the open phase builds two seconds of requests.
constexpr double kMaxRate = 1e6;

/// Raise RLIMIT_NOFILE toward its hard cap so >=1000 client sockets plus
/// the server side fit; no-op when the soft limit already suffices.
void ensure_fd_budget(std::size_t needed) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= needed) return;
  rl.rlim_cur = rl.rlim_max < needed ? rl.rlim_max : rlim_t{needed};
  setrlimit(RLIMIT_NOFILE, &rl);
}

/// An in-process `hpcarbon serve --listen` on an ephemeral loopback
/// port: start() on the caller, run() on a private thread, drained and
/// joined by the destructor.
struct ServerHarness {
  net::Server server;
  std::thread io;

  explicit ServerHarness(net::ServerOptions opts)
      : server([&] {
          opts.tcp = "127.0.0.1:0";
          return std::move(opts);
        }()) {
    server.start();
    io = std::thread([this] { server.run(); });
  }
  ~ServerHarness() {
    server.begin_drain();
    io.join();
  }
  net::LoadTarget target() const { return {server.tcp_endpoint(), ""}; }
};

int tool_main(int argc, char** argv) {
  std::size_t top_conns = 1024;
  std::size_t depth = 8;
  double rate = 50000;
  bench::BenchArgs args;
  options::Table flags = args.table("netload");
  flags
      .integer("--conns", "N", &top_conns, 1, kMaxCount,
               "top of the connection-count sweep (default 1024)")
      .integer("--depth", "D", &depth, 1, kMaxCount,
               "requests pipelined per connection (default 8)")
      .number("--rate", "R", &rate, {.lo = 0, .hi = kMaxRate, .lo_open = true},
              "open-loop offered req/s (default 50000)");
  if (!flags.parse(argc - 1, argv + 1, std::cout)) return 0;
  bench::Reporter report("netload", args);

  if (args.smoke) {
    if (top_conns > 128) top_conns = 128;
    rate = std::min(rate, 4000.0);
  }
  ensure_fd_budget(top_conns + 64);

  // Connection-concurrency ladder up to --conns (>=1000 by default).
  std::vector<std::size_t> ladder;
  for (std::size_t c = 1; c < top_conns; c *= 8) ladder.push_back(c);
  ladder.push_back(top_conns);
  const std::size_t level_requests = args.smoke ? 4000 : 120000;
  const std::size_t open_requests =
      args.smoke ? 3000 : static_cast<std::size_t>(rate * 2);

  bench::print_banner(
      "netload: closed-loop saturation vs connection count (loopback TCP, "
      "pipelining depth " + std::to_string(depth) + ")");
  const auto mix = net::zipf_mix(level_requests);

  double sat_qps = 0;
  double qps_top = 0;
  {
    net::ServerOptions sopts;
    sopts.workers = 0;  // inline: the single-core saturation shape
    ServerHarness h(sopts);
    // Warm the cache first so the sweep measures transport + hot engine.
    (void)net::run_closed_loop(h.target(), mix, 8, depth);

    TextTable t({"Conns", "Requests", "req/s", "p50 us", "p99 us", "Shed"});
    for (const std::size_t conns : ladder) {
      const auto r = net::run_closed_loop(h.target(), mix, conns, depth);
      if (r.errors != 0 || r.received != mix.size()) {
        std::cerr << "netload: closed loop lost requests (errors=" << r.errors
                  << ", received=" << r.received << ")\n";
        return 1;
      }
      sat_qps = std::max(sat_qps, r.qps);
      if (conns == top_conns) qps_top = r.qps;
      t.add_row({std::to_string(conns), std::to_string(r.received),
                 TextTable::num(r.qps, 0),
                 TextTable::num(net::percentile_sorted(r.latencies_us, 0.5), 1),
                 TextTable::num(net::percentile_sorted(r.latencies_us, 0.99),
                                1),
                 std::to_string(r.shed)});
    }
    bench::print_table(t);
    std::cout << "saturation: " << TextTable::num(sat_qps, 0)
              << " req/s peak; " << TextTable::num(qps_top, 0) << " req/s at "
              << top_conns << " connections (target >= 100k at >= 1000)\n";
  }

  bench::print_banner("netload: open-loop latency at " +
                      TextTable::num(rate, 0) +
                      " req/s offered (seeded Poisson arrivals)");
  double p50 = 0, p99 = 0, p999 = 0, shed_rate = 0;
  {
    net::ServerOptions sopts;
    sopts.workers = 0;
    ServerHarness h(sopts);
    const std::size_t open_conns = std::min<std::size_t>(top_conns, 256);
    const auto open_mix = net::zipf_mix(open_requests);
    (void)net::run_closed_loop(h.target(), open_mix, 8, depth);  // warm
    const auto r = net::run_open_loop(h.target(), open_mix, rate, open_conns,
                                      kArrivalSeed);
    if (r.errors != 0) {
      std::cerr << "netload: open loop lost requests (errors=" << r.errors
                << ")\n";
      return 1;
    }
    p50 = net::percentile_sorted(r.latencies_us, 0.5);
    p99 = net::percentile_sorted(r.latencies_us, 0.99);
    p999 = net::percentile_sorted(r.latencies_us, 0.999);
    shed_rate = static_cast<double>(r.shed) /
                static_cast<double>(r.received == 0 ? 1 : r.received);
    TextTable t({"Offered req/s", "Achieved", "Conns", "p50 us", "p99 us",
                 "p999 us", "Shed %"});
    t.add_row({TextTable::num(r.offered_rps, 0),
               TextTable::num(r.achieved_rps, 0),
               std::to_string(open_conns), TextTable::num(p50, 1),
               TextTable::num(p99, 1), TextTable::num(p999, 1),
               TextTable::num(100.0 * shed_rate, 2)});
    bench::print_table(t);
  }

  bench::print_banner(
      "netload: bounded in-flight queue sheds, never stalls (1 worker, "
      "max-inflight 4, cold sched query head-of-line)");
  double demo_shed_pct = 0;
  {
    net::ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_inflight = 4;
    ServerHarness h(sopts);
    // A cold scheduler run pins the only worker for milliseconds; the
    // pipelined burst behind it overflows the 4-deep queue.
    std::vector<std::string> burst;
    burst.push_back(R"({"op":"sched","params":{"policy":"net-benefit"}})");
    const std::size_t tail = args.smoke ? 300 : 2000;
    for (std::size_t i = 0; i < tail; ++i) {
      burst.push_back(R"({"op":"embodied","params":{"part":"epyc-7763"}})");
    }
    const auto r = net::run_closed_loop(h.target(), burst, 1, burst.size());
    demo_shed_pct = 100.0 * static_cast<double>(r.shed) /
                    static_cast<double>(r.received == 0 ? 1 : r.received);
    std::cout << r.received << " responses, " << r.shed
              << " shed (" << TextTable::num(demo_shed_pct, 1)
              << "%); every request answered: "
              << (r.received == burst.size() ? "yes" : "NO") << "\n";
    if (r.received != burst.size()) return 1;
    if (r.shed == 0) {
      std::cerr << "netload: expected the overload burst to shed\n";
      return 1;
    }
  }

  using bench::Direction;
  report.metric("conns", static_cast<double>(top_conns), "count",
                Direction::kHigherIsBetter);
  report.metric("depth", static_cast<double>(depth), "count",
                Direction::kHigherIsBetter);
  report.metric("sat_qps", sat_qps, "req/s", Direction::kHigherIsBetter,
                /*pinned=*/true);
  report.metric("qps_top_conns", qps_top, "req/s",
                Direction::kHigherIsBetter);
  report.metric("open_rate", rate, "req/s", Direction::kHigherIsBetter);
  // Open-loop latency shares one core with the server here, so absolute
  // values swing run-to-run; the trajectory reports them unpinned and
  // pins the saturation throughput instead.
  report.metric("open_p50_us", p50, "us", Direction::kLowerIsBetter);
  report.metric("open_p99_us", p99, "us", Direction::kLowerIsBetter);
  report.metric("open_p999_us", p999, "us", Direction::kLowerIsBetter);
  report.metric("open_shed_rate", shed_rate, "ratio",
                Direction::kLowerIsBetter);
  report.metric("overload_shed_pct", demo_shed_pct, "%",
                Direction::kHigherIsBetter);
  report.write();
  return 0;
}

}  // namespace

HPCARBON_TOOL("netload", ToolKind::kBench,
              "Socket front-end load generator: closed-loop saturation vs "
              "connection count, open-loop Poisson latency (p50/p99/p999), "
              "overload shedding; --json trajectory")
