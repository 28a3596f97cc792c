// query-hot and query-churn: open-loop socket load on an in-process
// net::Server, checked byte for byte against a fresh engine.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "calib.h"
#include "client.h"
#include "layers.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "rng.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace obs = hpcarbon::obs;
namespace serve = hpcarbon::serve;

const char* const kPresetRegions[] = {"KN",  "TK",   "ESO", "CISO",
                                      "PJM", "MISO", "ERCOT"};

/// One timed stretch of requests: its stream, send schedule and answers.
struct Phase {
  std::string label;  // id prefix, unique per phase
  double rate = 0;    // scheduled requests per second
  Stream stream;
  std::vector<double> schedule_us;
  PhaseResult result;
  double scale = 1;  // host probe's reference time / its time around it
};

/// A running server plus the client's connections to it.
struct Live {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<serve::TraceStore> traces;
  std::unique_ptr<hpcarbon::net::Server> server;
  std::atomic<pid_t> io_tid{0};
  std::thread io;
  std::vector<int> fds;

  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  ~Live() { stop(); }

  void stop() {
    if (server && io.joinable()) {
      server->begin_drain();
      io.join();
    }
    for (int fd : fds) close(fd);
    fds.clear();
  }
};

LineFn line_fn(const Universe& u, const Phase& ph) {
  return [&u, &ph](std::size_t i, std::string& out) {
    append_line(u, ph.stream, i, ph.label, out);
    out.push_back('\n');
  };
}

std::uint64_t label_seed(std::uint64_t seed, const std::string& label) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : label) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return derive_seed(seed, h);
}

Phase make_phase(const std::string& label, const Universe& u, const Zipf& zipf,
                 const QueryConfig& cfg, std::uint64_t seed, double rate,
                 double seconds) {
  Phase ph;
  ph.label = label;
  ph.rate = rate;
  const auto count =
      static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  ph.stream = draw_stream(u, zipf, cfg.stats_share, label_seed(seed, label),
                          count);
  ph.schedule_us =
      poisson_schedule_us(count, rate, label_seed(seed, label + "/t"));
  return ph;
}

/// Set-up's warm-up: hot sends every question once, churn a stream
/// prefix; in pipelined batches of kWarmupBatch, so the warm-up never
/// queues deeper than that.
constexpr std::size_t kWarmupBatch = 64;

/// Light/heavy phase pairs of the fixed-rate measurement.
constexpr int kRounds = 7;

/// Slicing of a rate's answers for its percentiles (rate_percentile).
constexpr std::size_t kMinPerSlice = 3000;
constexpr std::size_t kMaxSlices = 7;

/// Set-ups per run; the median is reported.
constexpr int kSetups = 5;

/// Time slices of the goodput phase; the median slice's rate is reported.
constexpr std::size_t kRateSlices = 9;

Phase make_warmup(const std::string& label, const Universe& u,
                  const Zipf& zipf, const QueryConfig& cfg,
                  std::uint64_t seed) {
  Phase ph;
  ph.label = label;
  if (cfg.hot) {
    for (std::size_t q = 0; q < u.questions.size(); ++q) {
      ph.stream.question.push_back(static_cast<std::uint32_t>(q));
      ph.stream.spelling.push_back(0);
    }
  } else {
    ph.stream = draw_stream(u, zipf, 0.0, label_seed(seed, "warm"),
                            cfg.warmup_requests);
  }
  return ph;
}

/// CPU sets of the timed part of a run: one CPU for the client thread,
/// the others for the server's IO thread and workers. With a single
/// allowed CPU every set is that CPU.
struct CpuPlan {
  cpu_set_t all, client, server;
};

CpuPlan plan_cpus() {
  CpuPlan p{};
  sched_getaffinity(0, sizeof p.all, &p.all);
  CPU_ZERO(&p.client);
  p.server = p.all;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &p.all)) continue;
    CPU_SET(c, &p.client);
    if (CPU_COUNT(&p.all) > 1) CPU_CLR(c, &p.server);
    break;
  }
  return p;
}

void pin_current_thread(const cpu_set_t& set) {
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

/// One CPU of the server set per server thread, the IO thread first, then
/// the workers (started inside Server::run, found in /proc/self/task),
/// wrapping round when threads outnumber CPUs. Where the scheduler puts
/// them would otherwise vary from run to run, and with it the capacity.
void pin_server_threads(pid_t client_tid, pid_t io_tid,
                        const cpu_set_t& server) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &server)) cpus.push_back(c);
  }
  std::vector<pid_t> threads = {io_tid};
  if (DIR* dir = opendir("/proc/self/task")) {
    std::vector<pid_t> workers;
    while (const dirent* e = readdir(dir)) {
      const auto tid = static_cast<pid_t>(std::atol(e->d_name));
      if (tid > 0 && tid != client_tid && tid != io_tid) workers.push_back(tid);
    }
    closedir(dir);
    std::sort(workers.begin(), workers.end());
    threads.insert(threads.end(), workers.begin(), workers.end());
  }
  for (std::size_t i = 0; i < threads.size() && !cpus.empty(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    sched_setaffinity(threads[i], sizeof one, &one);
  }
}

std::unique_ptr<Live> start_live(const QueryConfig& cfg, const Universe& u,
                                  const CpuPlan& pins, Phase& warm) {
  auto live = std::make_unique<Live>();
  live->registry = std::make_unique<obs::MetricsRegistry>();
  live->traces = std::make_unique<serve::TraceStore>();
  for (const char* code : kPresetRegions) live->traces->preset(code);
  hpcarbon::net::ServerOptions so;
  so.serve.cache_bytes = cfg.cache_bytes;
  so.serve.cache_shards = cfg.cache_shards;
  so.serve.traces = live->traces.get();
  so.serve.registry = live->registry.get();
  so.tcp = "127.0.0.1:0";
  so.workers = cfg.workers;
  so.max_inflight = std::size_t{1} << 20;  // queue, never shed: overload
                                           // shows as latency
  so.idle_timeout_s = 0;
  live->server = std::make_unique<hpcarbon::net::Server>(so);
  live->server->start();
  live->io = std::thread([l = live.get(), &pins] {
    pin_current_thread(pins.server);
    l->io_tid = current_tid();
    try {
      l->server->run();
    } catch (...) {
      // A failed event loop leaves requests unanswered; the run reports
      // them as failures.
    }
  });
  for (std::size_t c = 0; c < cfg.conns; ++c) {
    const int fd = connect_tcp_nonblocking(live->server->tcp_endpoint());
    if (fd >= 0) live->fds.push_back(fd);
  }
  warm.result = run_batches(live->fds, warm.stream.size(), line_fn(u, warm),
                            kWarmupBatch, 60.0);
  while (live->io_tid == 0) std::this_thread::yield();
  pin_server_threads(current_tid(), live->io_tid, pins.server);
  return live;
}

obs::Histogram::Snapshot engine_total(const obs::MetricsRegistry& reg) {
  obs::Histogram::Snapshot s;
  for (const auto& sample : reg.snapshot()) {
    if (sample.kind == obs::MetricKind::kHistogram &&
        sample.name == "hpcarbon_serve_total_latency_us") {
      s.merge(sample.hist);
    }
  }
  return s;
}

obs::Histogram::Snapshot minus(const obs::Histogram::Snapshot& a,
                               const obs::Histogram::Snapshot& b) {
  obs::Histogram::Snapshot d;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  d.count = a.count - b.count;
  d.sum_ns = a.sum_ns - b.sum_ns;
  return d;
}

/// Answered latencies of `count` phases, pooled; with `scaled`, each
/// phase's times are multiplied by its host-probe scale.
std::vector<double> pooled_latencies(const Phase* first, std::size_t count,
                                     bool scaled = false) {
  std::vector<double> all;
  for (const Phase* p = first; p != first + count; ++p) {
    for (double l : p->result.answered_latencies()) {
      all.push_back(scaled ? l * p->scale : l);
    }
  }
  return all;
}

/// The p-th scaled latency percentile of `count` phases at one rate, in
/// schedule order, as a median across slices (sliced_percentile). Each
/// slice holds at least kMinPerSlice answers, 30 beyond a p99; there are at
/// most kMaxSlices, an odd number so that the median is one slice's figure.
double rate_percentile(const Phase* first, std::size_t count, double p) {
  const std::vector<double> all = pooled_latencies(first, count, true);
  std::size_t slices =
      std::clamp<std::size_t>(all.size() / kMinPerSlice, 1, kMaxSlices);
  if (slices % 2 == 0) --slices;
  return sliced_percentile(all, p, slices);
}

/// Answers per second in each of kRateSlices equal stretches of the first
/// `seconds` of a closed-loop phase; the median stretch's rate.
double median_rate(const PhaseResult& r, double seconds) {
  std::vector<double> per(kRateSlices, 0.0);
  const double width_us = seconds * 1e6 / static_cast<double>(kRateSlices);
  for (std::size_t i = 0; i < r.attempted; ++i) {
    if (r.outcome[i] != Outcome::kOk) continue;
    const auto k = static_cast<std::size_t>(r.done_us[i] / width_us);
    if (k < kRateSlices) per[k] += 1e6 / width_us;
  }
  return median(per);
}

/// Every line the server answered, checked against the oracle in chunks.
std::size_t check_phases(const Universe& u,
                         const std::vector<const Phase*>& phases,
                         std::vector<std::string>& problems) {
  Oracle oracle;
  std::size_t mismatches = 0;
  constexpr std::size_t kChunk = 20000;
  std::vector<std::string> lines;
  for (const Phase* ph : phases) {
    const std::size_t n = ph->stream.size();
    for (std::size_t start = 0; start < n; start += kChunk) {
      const std::size_t end = std::min(n, start + kChunk);
      lines.assign(end - start, std::string());
      for (std::size_t i = start; i < end; ++i) {
        append_line(u, ph->stream, i, ph->label, lines[i - start]);
      }
      mismatches += oracle.check(lines, ph->result.digest.data() + start,
                                 ph->result.outcome.data() + start, problems);
    }
  }
  return mismatches;
}

}  // namespace

Report run_query(const QueryConfig& cfg, const RunOptions& opt) {
  Report rep;
  const Universe u = cfg.hot ? hot_universe()
                             : churn_universe(opt.seed, cfg.universe);
  const Zipf zipf(u.questions.size(), cfg.zipf_s,
                  label_seed(opt.seed, "zipf"));

  // The client keeps one CPU to itself and the server gets the rest for
  // the timed part of the run; the oracle afterwards uses them all.
  const CpuPlan pins = plan_cpus();
  pin_current_thread(pins.client);

  // The host probe (calib.h) runs on every CPU between timed stretches,
  // while the server is idle; a stretch's times are scaled by the probes
  // before and after it.
  HostProbe probe;
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> probe_s;
  auto probe_host = [&] {
    probe_s.push_back(probe.seconds_across(cpus));
    pin_current_thread(pins.client);
    return probe_s.back();
  };
  double probe_before = probe_host();
  auto scale = [&] {
    const double after = probe_host();
    const double f = 2 * kProbeReferenceS / (probe_before + after);
    probe_before = after;
    return f;
  };

  // Set-up, kSetups times; the last server stays up for the measurement.
  std::vector<double> setup_s;
  std::vector<Phase> warmups(kSetups);
  std::unique_ptr<Live> live;
  for (int k = 0; k < kSetups; ++k) {
    if (live) live->stop();
    live.reset();
    pin_current_thread(pins.client);
    Phase& w = warmups[static_cast<std::size_t>(k)];
    w = make_warmup("W" + std::to_string(k) + "-", u, zipf, cfg, opt.seed);
    const auto t0 = Clock::now();
    live = start_live(cfg, u, pins, w);
    const double s = seconds_since(t0);
    setup_s.push_back(s * scale());
  }
  const Phase& warm = warmups.back();

  // The fixed-rate phases take --seconds (0.6 × --seconds in a traced run,
  // which spends the rest on the goodput phase), cut into kRounds light and
  // kRounds heavy slices that alternate, so a slow stretch of the shared
  // host falls on both rates alike. Each rate's percentiles are medians
  // across slices of its answers (rate_percentile).
  const double S = opt.seconds;
  const double phases_s = opt.trace ? 0.6 * S : S;
  std::vector<Phase> light, heavy;
  for (int k = 0; k < kRounds; ++k) {
    const std::string r = std::to_string(k) + "-";
    light.push_back(make_phase("L" + r, u, zipf, cfg, opt.seed, cfg.light_rps,
                               0.5 * phases_s / kRounds));
    heavy.push_back(make_phase("H" + r, u, zipf, cfg, opt.seed, cfg.heavy_rps,
                               0.5 * phases_s / kRounds));
  }
  obs::Histogram::Snapshot light_engine;
  for (int k = 0; k < kRounds; ++k) {
    Phase& l = light[static_cast<std::size_t>(k)];
    Phase& h = heavy[static_cast<std::size_t>(k)];
    const obs::Histogram::Snapshot before = engine_total(*live->registry);
    l.result = run_open_loop(live->fds, l.schedule_us, line_fn(u, l), 30.0);
    light_engine.merge(minus(engine_total(*live->registry), before));
    l.scale = scale();
    h.result = run_open_loop(live->fds, h.schedule_us, line_fn(u, h), 30.0);
    h.scale = scale();
  }
  // Peak memory before the goodput phase, whose request count (and so the
  // client's bookkeeping) grows with the server's speed.
  const double rss_mb = peak_rss_mb();

  // Goodput (traced runs): the saturation rate. A closed loop keeps
  // cfg.window requests outstanding on each connection for 0.4 × --seconds;
  // the rate of ok answers in the median of kRateSlices stretches, scaled
  // by the probe.
  std::vector<Phase> saturation;
  double goodput = 0;
  if (opt.trace) {
    const double sat_s = 0.4 * S;
    Phase& g = saturation.emplace_back();
    g.label = "G-";
    g.stream = draw_stream(u, zipf, cfg.stats_share, label_seed(opt.seed, "G-"),
                           static_cast<std::size_t>(cfg.max_rps * sat_s));
    g.result = run_closed_loop(live->fds, g.stream.size(), line_fn(u, g),
                               cfg.window, sat_s, 30.0);
    g.scale = scale();
    g.stream.question.resize(g.result.attempted);
    g.stream.spelling.resize(g.result.attempted);
    goodput = median_rate(g.result, sat_s) / g.scale;
  }

  const serve::FrontEndStats& fe = live->server->stats();
  const double queue_max = static_cast<double>(fe.max_inflight.value());
  const double shed = static_cast<double>(fe.requests_shed.value());
  live->stop();
  pin_current_thread(pins.all);

  std::vector<const Phase*> phases = {&warm};
  for (int k = 0; k < kRounds; ++k) {
    phases.push_back(&light[static_cast<std::size_t>(k)]);
    phases.push_back(&heavy[static_cast<std::size_t>(k)]);
  }
  for (const Phase& p : saturation) phases.push_back(&p);
  for (const Phase* p : phases) {
    rep.attempted += p->result.attempted;
    rep.failed += p->result.failed();
  }
  const std::size_t mismatches = check_phases(u, phases, rep.problems);
  if (mismatches > 0) {
    rep.correct = false;
    rep.problems.push_back(std::to_string(mismatches) +
                           " socket responses differ from the oracle");
  }

  Metrics& m = rep.metrics;
  const std::vector<double> light_lat =
      pooled_latencies(light.data(), light.size());
  if (!opt.trace) {
    m["light_p50_us"] = {rate_percentile(light.data(), light.size(), 0.5),
                         "us"};
    m["heavy_p50_us"] = {rate_percentile(heavy.data(), heavy.size(), 0.5),
                         "us"};
    m["ok_share"] = {rep.attempted > 0
                         ? 1.0 - static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted)
                         : 0.0,
                     "ratio"};
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mb"] = {rss_mb, "MB"};
  } else {
    std::vector<double> lag;
    for (const std::vector<Phase>* set : {&light, &heavy}) {
      for (const Phase& p : *set) {
        lag.insert(lag.end(), p.result.lag_us.begin(), p.result.lag_us.end());
      }
    }
    m["client.lag_p99_us"] = {percentile(lag, 0.99), "us"};
    m["client.goodput_per_s"] = {goodput, "1/s"};
    m["client.light_p99_us"] = {
        rate_percentile(light.data(), light.size(), 0.99), "us"};
    m["client.heavy_p99_us"] = {
        rate_percentile(heavy.data(), heavy.size(), 0.99), "us"};
    m["net.outside_engine_p50_us"] = {
        percentile(light_lat, 0.5) - light_engine.quantile_us(0.5), "us"};
    m["net.queue_depth_max"] = {queue_max, "count"};
    m["net.shed"] = {shed, "count"};

    ReplayInput in;
    for (std::size_t i = 0; i < warm.stream.size(); ++i) {
      in.warmup.emplace_back();
      append_line(u, warm.stream, i, warm.label, in.warmup.back());
    }
    for (const Phase* p : phases) {
      if (p == &warm) continue;
      for (std::size_t i = 0; i < p->stream.size(); ++i) {
        if (in.lines.size() == cfg.replay_requests) break;
        std::string line;
        append_line(u, p->stream, i, p->label, line);
        in.lines.push_back(std::move(line));
        in.family.push_back(family_of(u, p->stream, i));
      }
    }
    in.cache_bytes = cfg.cache_bytes;
    in.cache_shards = cfg.cache_shards;
    if (!opt.trace_dir.empty()) {
      in.spans_path = opt.trace_dir + "/spans-" + cfg.name + ".csv";
    }
    const ReplayResult rr = replay_layers(in);
    for (const auto& [k, v] : rr.metrics) m[k] = v;
    if (rr.mismatches > 0) {
      rep.correct = false;
      rep.problems.push_back(std::to_string(rr.mismatches) +
                             " layered answers differ from handle_line_to");
    }
  }

  std::ostringstream c;
  c << "{\"workload\":\"" << cfg.name << "\",\"seed\":" << opt.seed
    << ",\"seconds\":" << json_number(S) << ",\"trace\":" << opt.trace
    << ",\"loop\":\"open\",\"light_rps\":" << json_number(cfg.light_rps)
    << ",\"heavy_rps\":" << json_number(cfg.heavy_rps)
    << ",\"goodput_loop\":\"closed\",\"window_per_conn\":" << cfg.window
    << ",\"connections\":" << cfg.conns
    << ",\"client_threads\":1,\"io_threads\":1,\"workers\":" << cfg.workers
    << ",\"cache_bytes\":" << cfg.cache_bytes
    << ",\"cache_shards\":" << cfg.cache_shards
    << ",\"questions\":" << u.questions.size()
    << ",\"zipf_s\":" << json_number(cfg.zipf_s)
    << ",\"stats_share\":" << json_number(cfg.stats_share)
    << ",\"rounds\":" << kRounds
    << ",\"setups\":" << kSetups
    << ",\"probe_ms\":" << json_number(median(probe_s) * 1e3)
    << ",\"requests\":{\"warmup\":" << warm.stream.size()
    << ",\"light\":" << light_lat.size() << ",\"heavy\":"
    << pooled_latencies(heavy.data(), heavy.size()).size();
  for (const Phase& g : saturation) {
    c << ",\"goodput\":" << g.result.attempted << ",\"goodput_p99_us\":"
      << json_number(rate_percentile(&g, 1, 0.99));
  }
  c << "}}";
  rep.config_json = c.str();
  return rep;
}

}  // namespace perfbench
