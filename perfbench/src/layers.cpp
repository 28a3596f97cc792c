#include "layers.h"

#include <cstdint>
#include <fstream>

#include "core/json.h"
#include "gen.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace perfbench {

namespace {

namespace serve = hpcarbon::serve;
namespace json = hpcarbon::json;

// Span names. serve.eval.<family> occupies kEval .. kEval + 5.
enum : std::uint8_t {
  kRequest,
  kParse,
  kGet,
  kEval,
  kDump = kEval + kFamilyCount,
  kPut,
  kHandle,
  kNameCount
};

std::string span_name(std::uint8_t n) {
  switch (n) {
    case kRequest: return "serve.request";
    case kParse: return "serve.parse";
    case kGet: return "serve.cache.get";
    case kDump: return "core.json.dump";
    case kPut: return "serve.cache.put";
    case kHandle: return "serve.engine.handle";
    default: return std::string("serve.eval.") + kFamilies[n - kEval];
  }
}

struct Span {
  std::uint32_t request = 0;
  std::uint8_t name = 0;
  std::int32_t parent = -1;  // index into the span log, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  std::int32_t add(std::uint32_t request, std::uint8_t name,
                   std::int32_t parent, std::int64_t a, std::int64_t b) {
    if (!on_) return -1;
    spans_.push_back({request, name, parent, a, b});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// The layered answer to one query line, spans recorded into `log`;
/// returns the response bytes Engine::handle_line_to would emit.
void answer_layered(std::string_view line, std::uint32_t req,
                    serve::ResultCache& cache, serve::TraceStore& traces,
                    SpanLog& log, std::string& out) {
  const std::int64_t r0 = log.now();
  const std::int32_t root = log.add(req, kRequest, -1, r0, r0);
  std::int64_t a = log.now();
  const serve::Query q = serve::parse_query_line(line);
  std::int64_t b = log.now();
  log.add(req, kParse, root, a, b);

  out.push_back('{');
  if (!q.id.empty()) {
    out += "\"id\":";
    json::quote_to(out, q.id);
    out.push_back(',');
  }
  out += "\"ok\":true,\"op\":";
  json::quote_to(out, q.op);
  out += ",\"result\":";

  a = log.now();
  const bool hit = cache.get_append(q.key, q.canonical, out);
  b = log.now();
  log.add(req, kGet, root, a, b);
  if (!hit) {
    a = log.now();
    const json::Value v = serve::evaluate(q, traces);
    b = log.now();
    log.add(req, static_cast<std::uint8_t>(kEval + q.family), root, a, b);
    a = log.now();
    std::string result = v.dump(/*sort_keys=*/true);
    b = log.now();
    log.add(req, kDump, root, a, b);
    out += result;
    a = log.now();
    cache.put(q.key, q.canonical, std::move(result));
    b = log.now();
    log.add(req, kPut, root, a, b);
  }
  out.push_back('}');
  if (root >= 0) log.spans()[static_cast<std::size_t>(root)].end_ns = log.now();
}

double us(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

}  // namespace

ReplayResult replay_layers(const ReplayInput& in) {
  ReplayResult res;
  Metrics& m = res.metrics;

  // Framing: the whole stream fed in socket-sized chunks.
  {
    std::string blob;
    for (const auto& l : in.lines) {
      blob += l;
      blob.push_back('\n');
    }
    std::vector<double> per_line;
    for (int rep = 0; rep < 5; ++rep) {
      hpcarbon::net::LineFramer framer;
      std::size_t count = 0;
      const auto t0 = Clock::now();
      for (std::size_t off = 0; off < blob.size(); off += 16384) {
        framer.feed(std::string_view(blob).substr(off, 16384));
        while (framer.next().kind != hpcarbon::net::LineFramer::Item::Kind::kNone) {
          ++count;
        }
      }
      const double ns = seconds_since(t0) * 1e9;
      if (count > 0) per_line.push_back(ns / static_cast<double>(count));
    }
    m["net.frame_ns_per_line"] = {median(per_line), "ns"};
  }

  // Each pass starts from the cache state set-up leaves behind.
  SpanLog untimed(false);
  std::string out;
  auto warm_layered = [&](serve::ResultCache& c, serve::TraceStore& t) {
    for (const auto& l : in.warmup) {
      out.clear();
      answer_layered(l, 0, c, t, untimed, out);
    }
  };

  // Pass 1: layered, traced.
  SpanLog log(true);
  serve::ResultCache cache(in.cache_shards, in.cache_bytes);
  serve::TraceStore traces;
  warm_layered(cache, traces);
  const serve::CacheStats warm_stats = cache.stats();
  const std::uint64_t warm_trace_hits = traces.hits();
  const std::uint64_t warm_trace_misses = traces.misses();
  std::vector<std::uint64_t> layered_digest(in.lines.size(), 0);
  std::size_t n = 0;
  const auto p1 = Clock::now();
  for (; n < in.lines.size(); ++n) {
    if (in.family[n] < 0) continue;
    out.clear();
    answer_layered(in.lines[n], static_cast<std::uint32_t>(n), cache, traces,
                   log, out);
    layered_digest[n] = digest(out);
  }
  const double traced_s = seconds_since(p1);

  // Pass 2: Engine::handle_line_to on a fresh engine, same geometry.
  std::vector<double> handle_us(n, -1.0);
  {
    hpcarbon::obs::MetricsRegistry registry;
    serve::TraceStore engine_traces;
    serve::ServeOptions so;
    so.cache_bytes = in.cache_bytes;
    so.cache_shards = in.cache_shards;
    so.traces = &engine_traces;
    so.registry = &registry;
    serve::Engine engine(so);
    for (const auto& l : in.warmup) {
      out.clear();
      engine.handle_line_to(l, out);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (in.family[i] < 0) continue;
      out.clear();
      const std::int64_t a = log.now();
      engine.handle_line_to(in.lines[i], out);
      const std::int64_t b = log.now();
      log.add(static_cast<std::uint32_t>(i), kHandle, -1, a, b);
      handle_us[i] = static_cast<double>(b - a) / 1000.0;
      if (digest(out) != layered_digest[i]) ++res.mismatches;
    }
  }

  // Pass 3: the layered path again with no spans, for the tracing cost.
  double untraced_s = 0;
  {
    SpanLog off(false);
    serve::ResultCache cache3(in.cache_shards, in.cache_bytes);
    serve::TraceStore traces3;
    warm_layered(cache3, traces3);
    const auto p3 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (in.family[i] < 0) continue;
      out.clear();
      answer_layered(in.lines[i], static_cast<std::uint32_t>(i), cache3,
                     traces3, off, out);
    }
    untraced_s = seconds_since(p3);
  }

  // Per-layer figures from the spans.
  std::vector<std::vector<double>> by_name(kNameCount);
  std::vector<double> layer_sum(n, 0.0);
  for (const Span& s : log.spans()) {
    by_name[s.name].push_back(us(s));
    if (s.parent >= 0) layer_sum[s.request] += us(s);
  }
  std::vector<double> handle, layers, unattributed;
  for (std::size_t i = 0; i < n; ++i) {
    if (handle_us[i] < 0) continue;
    handle.push_back(handle_us[i]);
    layers.push_back(layer_sum[i]);
    unattributed.push_back(handle_us[i] - layer_sum[i]);
  }
  m["serve.parse_p50_us"] = {percentile(by_name[kParse], 0.5), "us"};
  m["serve.parse_p99_us"] = {percentile(by_name[kParse], 0.99), "us"};
  m["serve.cache.get_p50_us"] = {median(by_name[kGet]), "us"};
  m["serve.cache.put_p50_us"] = {median(by_name[kPut]), "us"};
  m["core.json.dump_p50_us"] = {median(by_name[kDump]), "us"};
  double eval_total = 0;
  for (int f = 0; f < kFamilyCount; ++f) {
    for (double v : by_name[kEval + f]) eval_total += v;
  }
  for (int f = 0; f < kFamilyCount; ++f) {
    const auto& v = by_name[kEval + f];
    double sum = 0;
    for (double x : v) sum += x;
    const std::string p = std::string("serve.eval.") + kFamilies[f];
    m[p + ".p50_us"] = {median(v), "us"};
    m[p + ".count"] = {static_cast<double>(v.size()), "count"};
    m[p + ".share"] = {eval_total > 0 ? sum / eval_total : 0.0, "ratio"};
  }
  m["serve.engine.handle_p50_us"] = {percentile(handle, 0.5), "us"};
  m["serve.engine.handle_p99_us"] = {percentile(handle, 0.99), "us"};
  m["serve.engine.layers_p50_us"] = {median(layers), "us"};
  m["serve.engine.unattributed_p50_us"] = {median(unattributed), "us"};

  // Cache and trace-store counts of the timed requests only.
  const serve::CacheStats cs = cache.stats();
  const auto hits = static_cast<double>(cs.hits - warm_stats.hits);
  const auto misses = static_cast<double>(cs.misses - warm_stats.misses);
  m["serve.cache.hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["serve.cache.evictions"] = {
      static_cast<double>(cs.evictions - warm_stats.evictions), "count"};
  const auto trace_hits = static_cast<double>(traces.hits() - warm_trace_hits);
  const auto trace_misses =
      static_cast<double>(traces.misses() - warm_trace_misses);
  m["serve.trace_store.hit_ratio"] = {
      trace_hits + trace_misses > 0 ? trace_hits / (trace_hits + trace_misses)
                                    : 0.0,
      "ratio"};
  m["trace.overhead_pct"] = {
      untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0,
      "pct"};

  if (!in.spans_path.empty()) {
    std::ofstream f(in.spans_path);
    f << "request,span,parent,name,start_ns,end_ns\n";
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << s.request << ',' << i << ',' << s.parent << ',' << span_name(s.name)
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return res;
}

}  // namespace perfbench
