#include "cli/serve_tool.h"

#include <chrono>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/dispatch.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "net/framing.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "serve/engine.h"
#include "serve/limits.h"

namespace hpcarbon::cli {

namespace {

struct FrontEndOptions {
  serve::ServeOptions serve;
  std::string input_path;  // batch only; "-" reads stdin
  std::string out_path;    // batch only; empty writes stdout
  std::size_t threads = 0;
  // Serve-only observability endpoints (pipe and socket modes).
  std::string metrics_unix;      // --metrics-unix PATH (Prometheus scrape)
  double stats_interval_s = 0;   // --stats-interval SECS (stderr summary)
  // Socket mode (serve only): active when listen or unix_path is set.
  std::string listen;     // --listen HOST:PORT
  std::string unix_path;  // --unix PATH
  std::size_t workers = net::ServerOptions::default_workers();
  std::size_t max_conns = net::ServerOptions{}.max_conns;
  std::size_t max_inflight = net::ServerOptions{}.max_inflight;
  double idle_timeout_s = net::ServerOptions{}.idle_timeout_s;
};

std::string next_value(const char* flag, int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
  return argv[++i];
}

std::size_t parse_count(const char* flag, const std::string& v, long min) {
  std::size_t consumed = 0;
  long n = 0;
  try {
    n = std::stol(v, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != v.size() || n < min) {
    throw Error(std::string(flag) + " expects an integer >= " +
                std::to_string(min) + ", got '" + v + "'");
  }
  return static_cast<std::size_t>(n);
}

/// Flags shared by both front-ends; returns false for flags the caller
/// must handle (positional input path for batch, socket flags for serve).
bool parse_common_flag(const std::string& arg, int argc, char** argv, int& i,
                       FrontEndOptions& opts) {
  auto next_count = [&](const char* flag) {
    return parse_count(flag, next_value(flag, argc, argv, i), 1);
  };
  if (arg == "--threads") {
    opts.threads = next_count("--threads");
    return true;
  }
  if (arg == "--cache-mb") {
    const std::size_t mb = next_count("--cache-mb");
    // Bounded so the <<20 below cannot overflow std::size_t into a
    // budget unrelated to what was asked for.
    if (mb > (std::size_t{1} << 20)) {  // 1 TiB
      throw Error("--cache-mb must be at most 1048576 (1 TiB)");
    }
    opts.serve.cache_bytes = mb << 20;
    return true;
  }
  if (arg == "--shards") {
    const std::size_t shards = next_count("--shards");
    if (shards > 4096) throw Error("--shards must be at most 4096");
    opts.serve.cache_shards = shards;
    return true;
  }
  return false;
}

/// Socket-mode serve flags; returns false for anything it doesn't know.
bool parse_net_flag(const std::string& arg, int argc, char** argv, int& i,
                    FrontEndOptions& opts) {
  if (arg == "--listen") {
    opts.listen = next_value("--listen", argc, argv, i);
    return true;
  }
  if (arg == "--unix") {
    opts.unix_path = next_value("--unix", argc, argv, i);
    return true;
  }
  if (arg == "--workers") {  // 0 = answer inline on the IO thread
    opts.workers =
        parse_count("--workers", next_value("--workers", argc, argv, i), 0);
    return true;
  }
  if (arg == "--max-conns") {
    opts.max_conns = parse_count(
        "--max-conns", next_value("--max-conns", argc, argv, i), 1);
    return true;
  }
  if (arg == "--max-inflight") {
    opts.max_inflight = parse_count(
        "--max-inflight", next_value("--max-inflight", argc, argv, i), 1);
    return true;
  }
  if (arg == "--idle-timeout") {
    const std::string v = next_value("--idle-timeout", argc, argv, i);
    std::size_t consumed = 0;
    double s = 0;
    try {
      s = std::stod(v, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != v.size()) {
      throw Error("--idle-timeout expects seconds (0 disables), got '" + v +
                  "'");
    }
    opts.idle_timeout_s = s;
    return true;
  }
  if (arg == "--metrics-unix") {
    opts.metrics_unix = next_value("--metrics-unix", argc, argv, i);
    return true;
  }
  if (arg == "--stats-interval") {
    const std::string v = next_value("--stats-interval", argc, argv, i);
    std::size_t consumed = 0;
    double s = 0;
    try {
      s = std::stod(v, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != v.size() || s < 0) {
      throw Error("--stats-interval expects seconds (0 disables), got '" + v +
                  "'");
    }
    opts.stats_interval_s = s;
    return true;
  }
  return false;
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

void size_pool(const FrontEndOptions& opts) {
  ThreadPool::set_global_threads(
      opts.threads > 0 ? opts.threads : default_worker_threads());
}

/// Request lines of a JSONL payload: blank and whitespace-only lines are
/// skipped (trailing newline, CRLF endings), everything else is a request.
std::vector<std::string> request_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    if (!line.empty()) lines.push_back(std::move(line));
    if (end == text.size()) break;
    pos = end + 1;
  }
  return lines;
}

std::string read_all_of_stdin() {
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  return buf.str();
}

/// Pipe mode: request/response loop on stdin/stdout, one flushed response
/// per line. Framing (trimming, blank-line skipping, the shared
/// max-line-length guard) goes through the same LineFramer the socket
/// front-end uses, so an oversized line gets the identical ok:false
/// answer here without ever being buffered whole.
int serve_pipe(const FrontEndOptions& opts) {
  serve::Engine engine(opts.serve);
  const std::unique_ptr<obs::ScrapeServer> scrape =
      start_scrape_server(opts.metrics_unix, engine);
  PeriodicStats reporter(engine, opts.stats_interval_s);
  net::LineFramer framer;
  std::string response;  // reused across lines (handle_line_to appends)
  char chunk[65536];
  auto answer = [&](const net::LineFramer::Item& item) {
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
  };
  while (std::cin.read(chunk, sizeof(chunk)) || std::cin.gcount() > 0) {
    framer.feed(
        std::string_view(chunk, static_cast<std::size_t>(std::cin.gcount())));
    for (auto item = framer.next();
         item.kind != net::LineFramer::Item::Kind::kNone;
         item = framer.next()) {
      answer(item);
    }
  }
  const auto last = framer.finish();  // input without a trailing newline
  if (last.kind != net::LineFramer::Item::Kind::kNone) answer(last);
  return 0;
}

/// Socket mode: epoll event loop on the configured TCP and/or UDS
/// endpoints, graceful drain on SIGTERM/SIGINT (exit 0).
int serve_sockets(const FrontEndOptions& opts) {
  net::ServerOptions sopts;
  sopts.serve = opts.serve;
  // Daemon uptime: the stats op's uptime_s field and the
  // hpcarbon_process_uptime_seconds gauge (whole seconds since start).
  const auto started = std::chrono::steady_clock::now();
  sopts.serve.uptime = [started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };
  sopts.tcp = opts.listen;
  sopts.unix_path = opts.unix_path;
  sopts.workers = opts.workers;
  sopts.max_conns = opts.max_conns;
  sopts.max_inflight = opts.max_inflight;
  sopts.idle_timeout_s = opts.idle_timeout_s;

  net::Server server(std::move(sopts));
  server.start();
  const std::unique_ptr<obs::ScrapeServer> scrape =
      start_scrape_server(opts.metrics_unix, server.engine());
  PeriodicStats reporter(server.engine(), opts.stats_interval_s);
  std::cerr << "hpcarbon serve: listening on";
  if (!server.tcp_endpoint().empty()) {
    std::cerr << " tcp " << server.tcp_endpoint();
  }
  if (!opts.unix_path.empty()) std::cerr << " unix " << opts.unix_path;
  std::cerr << " (workers=" << opts.workers
            << ", max-conns=" << opts.max_conns
            << ", max-inflight=" << opts.max_inflight << ")\n";

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

int cmd_batch(int argc, char** argv) {
  FrontEndOptions opts;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (parse_common_flag(arg, argc, argv, i, opts)) continue;
    if (arg == "--out") {
      if (i + 1 >= argc) throw Error("--out needs a value");
      opts.out_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      throw Error("unknown batch flag '" + arg + "' (see `hpcarbon help`)");
    } else if (opts.input_path.empty()) {
      opts.input_path = arg;
    } else {
      throw Error("batch takes one input file, got '" + arg + "' too");
    }
  }
  if (opts.input_path.empty()) {
    std::cerr << "hpcarbon batch: name a requests.jsonl file (or '-' for "
                 "stdin)\n";
    return 2;
  }
  size_pool(opts);

  const std::string text = opts.input_path == "-" ? read_all_of_stdin()
                                                  : read_file(opts.input_path);
  const std::vector<std::string> lines = request_lines(text);

  serve::Engine engine(opts.serve);
  const std::vector<std::string> responses = engine.handle_batch(lines);

  std::string out;
  for (const auto& r : responses) {
    out += r;
    out.push_back('\n');
  }
  if (opts.out_path.empty()) {
    std::cout << out;
  } else {
    write_file(opts.out_path, out);
  }

  const serve::CacheStats cs = engine.cache_stats();
  std::cerr << "hpcarbon batch: " << lines.size() << " requests; cache: "
            << cs.hits << " hits, " << cs.misses << " misses, "
            << cs.evictions << " evictions, " << cs.entries << " entries, "
            << cs.bytes << " bytes\n";
  return 0;
}

int cmd_serve(int argc, char** argv) {
  FrontEndOptions opts;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (parse_common_flag(arg, argc, argv, i, opts)) continue;
    if (parse_net_flag(arg, argc, argv, i, opts)) continue;
    throw Error("unknown serve flag '" + arg + "' (see `hpcarbon help`)");
  }
  size_pool(opts);
  if (!opts.listen.empty() || !opts.unix_path.empty()) {
    return serve_sockets(opts);
  }
  return serve_pipe(opts);
}

}  // namespace hpcarbon::cli
