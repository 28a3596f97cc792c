#include "cli/serve_tool.h"

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/dispatch.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/options.h"
#include "core/thread_annotations.h"
#include "net/framing.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "serve/engine.h"
#include "serve/limits.h"

namespace hpcarbon::cli {

namespace {

struct FrontEndOptions {
  /// Engine settings (`net.serve`, all front-ends) and socket-daemon
  /// settings (serve only: socket mode when `tcp` or `unix_path` is set).
  net::ServerOptions net;
  std::size_t cache_mb = net.serve.cache_bytes >> 20;
  std::string input_path;  // batch only; "-" reads stdin
  std::string out_path;    // batch only; empty writes stdout
  std::size_t threads = 0;
  // Serve-only observability endpoints (pipe and socket modes).
  std::string metrics_unix;      // --metrics-unix PATH (Prometheus scrape)
  double stats_interval_s = 0;   // --stats-interval SECS (stderr summary)
};

/// Flags shared by both front-ends.
void add_engine_flags(options::Table& flags, FrontEndOptions& opts) {
  add_threads_flag(flags, &opts.threads);
  // 1 TiB at most, so the <<20 into bytes cannot overflow std::size_t.
  flags
      .integer("--cache-mb", "M", &opts.cache_mb, 1, 1 << 20,
               "result-cache budget in MiB (default 8)")
      .integer("--shards", "N", &opts.net.serve.cache_shards, 1, 4096,
               "result-cache shards (default 8)");
}

/// One-line operational summary on stderr, assembled from the engine's
/// obs registry (stderr only — stdout is the data plane).
void print_stats_summary(serve::Engine& engine) {
  std::uint64_t requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  obs::Histogram::Snapshot lat;
  for (const auto& s : engine.snapshot()) {
    if (s.name == "hpcarbon_serve_requests_total") {
      requests += static_cast<std::uint64_t>(s.value);
    } else if (s.name == "hpcarbon_serve_total_latency_us") {
      lat.merge(s.hist);
    } else if (s.name == "hpcarbon_cache_hits_total") {
      cache_hits = s.value;
    } else if (s.name == "hpcarbon_cache_misses_total") {
      cache_misses = s.value;
    }
  }
  std::cerr << "hpcarbon serve: " << requests << " requests, cache "
            << cache_hits << " hits / " << cache_misses << " misses, p50 "
            << lat.quantile_us(0.50) << " us, p99 " << lat.quantile_us(0.99)
            << " us\n";
}

/// `--stats-interval SECS`: a background thread printing the summary
/// line every interval until destruction (daemon liveness signal when
/// stdout is a busy pipe).
class PeriodicStats {
 public:
  PeriodicStats(serve::Engine& engine, double interval_s) {
    if (interval_s <= 0) return;
    thread_ = std::thread([this, &engine, interval_s] {
      const auto interval = std::chrono::duration<double>(interval_s);
      MutexLock lock(mu_);
      while (!stop_) {
        // Print only on a real timeout: a spurious wake (or the stop
        // notify) re-checks the flag instead.
        if (cv_.wait_for(mu_, interval) == std::cv_status::no_timeout) {
          continue;
        }
        if (!stop_) print_stats_summary(engine);
      }
    });
  }

  ~PeriodicStats() {
    if (!thread_.joinable()) return;
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  AnnotatedMutex mu_;
  std::condition_variable_any cv_;
  bool stop_ HPCARBON_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// `--metrics-unix PATH`: Prometheus scrape endpoint over the engine's
/// registry, refreshing the uptime gauge before every snapshot.
std::unique_ptr<obs::ScrapeServer> start_scrape_server(
    const std::string& path, serve::Engine& engine) {
  if (path.empty()) return nullptr;
  auto scrape = std::make_unique<obs::ScrapeServer>(
      path, &engine.registry(), [&engine] { engine.refresh_uptime(); });
  scrape->start();
  std::cerr << "hpcarbon serve: metrics on unix " << path << "\n";
  return scrape;
}

/// Frames `in` in 64 KiB reads through a LineFramer, the socket server's
/// framing, and hands every line and oversize report to `each` in order.
template <class Each>
void frame_input(std::istream& in, Each&& each) {
  net::LineFramer framer;
  char chunk[65536];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    framer.feed(
        std::string_view(chunk, static_cast<std::size_t>(in.gcount())));
    for (auto item = framer.next();
         item.kind != net::LineFramer::Item::Kind::kNone;
         item = framer.next()) {
      each(item);
    }
  }
  const auto last = framer.finish();  // input without a trailing newline
  if (last.kind != net::LineFramer::Item::Kind::kNone) each(last);
}

/// Pipe mode: request/response loop on stdin/stdout, one flushed response
/// per line. An oversized line gets the ok:false answer without ever
/// being buffered whole.
int serve_pipe(const FrontEndOptions& opts) {
  serve::Engine engine(opts.net.serve);
  const std::unique_ptr<obs::ScrapeServer> scrape =
      start_scrape_server(opts.metrics_unix, engine);
  PeriodicStats reporter(engine, opts.stats_interval_s);
  std::string response;  // reused across lines (handle_line_to appends)
  frame_input(std::cin, [&](const net::LineFramer::Item& item) {
    response.clear();
    if (item.kind == net::LineFramer::Item::Kind::kOversize) {
      serve::append_error_response(
          response, {}, serve::oversize_line_error(item.oversize_bytes));
    } else {
      engine.handle_line_to(item.line, response);
    }
    response.push_back('\n');
    // One response per request, flushed immediately: the reader on the
    // other end of the pipe must not wait on a buffer.
    std::cout << response << std::flush;
  });
  return 0;
}

/// Socket mode: epoll event loop on the configured TCP and/or UDS
/// endpoints, graceful drain on SIGTERM/SIGINT (exit 0).
int serve_sockets(const FrontEndOptions& opts) {
  net::ServerOptions sopts = opts.net;
  // Daemon uptime: the stats op's uptime_s field and the
  // hpcarbon_process_uptime_seconds gauge (whole seconds since start).
  const auto started = std::chrono::steady_clock::now();
  sopts.serve.uptime = [started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  net::Server server(std::move(sopts));
  server.start();
  const std::unique_ptr<obs::ScrapeServer> scrape =
      start_scrape_server(opts.metrics_unix, server.engine());
  PeriodicStats reporter(server.engine(), opts.stats_interval_s);
  std::cerr << "hpcarbon serve: listening on";
  if (!server.tcp_endpoint().empty()) {
    std::cerr << " tcp " << server.tcp_endpoint();
  }
  if (!opts.net.unix_path.empty()) {
    std::cerr << " unix " << opts.net.unix_path;
  }
  std::cerr << " (workers=" << opts.net.workers
            << ", max-conns=" << opts.net.max_conns
            << ", max-inflight=" << opts.net.max_inflight << ")\n";

  net::install_signal_drain(server);
  server.run();
  net::uninstall_signal_drain();

  const auto& fe = server.stats();
  std::cerr << "hpcarbon serve: drained; "
            << fe.connections_accepted.value() << " connections, "
            << fe.bytes_in.value() << " bytes in, " << fe.bytes_out.value()
            << " bytes out, " << fe.requests_shed.value() << " shed\n";
  return 0;
}

}  // namespace

int cmd_batch(int argc, char** argv, std::ostream& out, std::ostream& err) {
  FrontEndOptions opts;
  options::Table flags("batch", "FILE [flags]",
                       "answer a JSONL file of carbon queries ('-' reads "
                       "stdin; see README \"Query API\")");
  flags.text("--out", "PATH", &opts.out_path,
             "write responses to a file instead of stdout");
  add_engine_flags(flags, opts);
  flags.positional([&opts](const std::string& arg) {
    if (!opts.input_path.empty()) {
      throw Error("batch takes one input file, got '" + arg + "' too");
    }
    opts.input_path = arg;
  });
  if (!flags.parse(argc, argv, out)) return 0;
  if (opts.input_path.empty()) {
    err << "hpcarbon batch: name a requests.jsonl file (or '-' for stdin)\n";
    return 2;
  }
  opts.net.serve.cache_bytes = opts.cache_mb << 20;
  size_pool(opts.threads);

  std::ifstream file;
  if (opts.input_path != "-") {
    file.open(opts.input_path, std::ios::binary);
    if (!file) throw Error("cannot open file: " + opts.input_path);
  }
  std::istream& input = opts.input_path == "-" ? std::cin : file;
  // One answer per item, in input order. An oversized line never reaches
  // the engine: it gets the pipe's answer here, and the engine's
  // responses fill the empty slots (no answer document is empty) in order.
  std::vector<std::string> lines;
  std::vector<std::string> answers;
  frame_input(input, [&](const net::LineFramer::Item& item) {
    answers.emplace_back();
    if (item.kind == net::LineFramer::Item::Kind::kOversize) {
      serve::append_error_response(
          answers.back(), {}, serve::oversize_line_error(item.oversize_bytes));
    } else {
      lines.emplace_back(item.line);
    }
  });
  // A directory opens, and its first read fails (EISDIR): an error, not
  // an empty batch.
  if (input.bad()) throw Error("cannot read file: " + opts.input_path);
  serve::Engine engine(opts.net.serve);
  const std::vector<std::string> responses = engine.handle_batch(lines);

  std::string jsonl;
  std::size_t next_response = 0;
  for (const std::string& answer : answers) {
    jsonl += answer.empty() ? responses[next_response++] : answer;
    jsonl.push_back('\n');
  }
  if (opts.out_path.empty()) {
    std::cout << jsonl;
  } else {
    write_file(opts.out_path, jsonl);
  }

  const serve::CacheStats cs = engine.cache_stats();
  std::cerr << "hpcarbon batch: " << answers.size() << " requests; cache: "
            << cs.hits << " hits, " << cs.misses << " misses, "
            << cs.evictions << " evictions, " << cs.entries << " entries, "
            << cs.bytes << " bytes\n";
  return 0;
}

int cmd_serve(int argc, char** argv, std::ostream& out, std::ostream&) {
  FrontEndOptions opts;
  options::Table flags("serve", "[flags]",
                       "line-delimited JSON queries on stdin/stdout, or the "
                       "epoll socket\ndaemon with --listen/--unix (see "
                       "README \"Query API\")");
  add_engine_flags(flags, opts);
  flags
      .text("--listen", "HOST:PORT", &opts.net.tcp,
            "serve TCP instead of the pipe")
      .text("--unix", "PATH", &opts.net.unix_path,
            "serve a Unix-domain socket instead of the pipe")
      .integer("--workers", "N", &opts.net.workers, 0, 4096,
               "workers for cache misses, stats and metrics; 0 answers all "
               "on the IO thread (default: cores - 1)")
      .integer("--max-conns", "N", &opts.net.max_conns, 1, options::kMaxExact,
               "connections beyond this are closed (default 10000)")
      .integer("--max-inflight", "N", &opts.net.max_inflight, 1,
               options::kMaxExact,
               "requests waiting for a worker beyond this are shed; hits "
               "never are (default 4096)")
      .number("--idle-timeout", "S", &opts.net.idle_timeout_s,
              {.lo = 0, .hi = 1e6},
              "close connections idle this long; 0 disables (default 300)")
      .text("--metrics-unix", "PATH", &opts.metrics_unix,
            "Prometheus scrape socket (see README \"Observability\")")
      .number("--stats-interval", "S", &opts.stats_interval_s,
              {.lo = 0, .hi = 1e6},
              "stderr stats summary every S seconds; 0 disables "
              "(default)");
  if (!flags.parse(argc, argv, out)) return 0;
  opts.net.serve.cache_bytes = opts.cache_mb << 20;
  size_pool(opts.threads);
  if (!opts.net.tcp.empty() || !opts.net.unix_path.empty()) {
    return serve_sockets(opts);
  }
  return serve_pipe(opts);
}

}  // namespace hpcarbon::cli
