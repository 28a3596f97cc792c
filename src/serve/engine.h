// Concurrent carbon-query engine: the execution half of the serve layer.
//
// One Engine owns a ResultCache and answers request lines
// (serve/request.h) with response lines:
//
//   {"id":"q1","ok":true,"op":"lifetime","result":{...}}      success
//   {"error":"...","id":"q1","ok":false}                      invalid
//
// Responses are a pure function of the canonical request — the client id
// is echoed but never changes the result, and cache state is reported
// only through the separate {"op":"stats"} control request — so the batch
// front-end, the stdin/stdout daemon loop, repeated runs, and every
// thread count all emit bit-identical bytes for the same question.
//
// handle_line_to answers one line in two halves. begin_line parses it and
// answers whatever needs no evaluation: an invalid request, or a query
// whose result is cached. finish_line answers the rest: a cache miss, and
// the stats and metrics control requests. Every front-end answers through
// these two halves, so each records parse, eval and total latency the
// same way. The pipe runs both in sequence; the socket server runs the
// first on its IO thread and hands the rest to a worker (src/net/server.h).
// handle_batch runs begin_line over a segment of lines in input order,
// then finish_line once per distinct uncached canonical key over the pool
// (ThreadPool::global() by default), and each repeat of a key after it,
// so identical in-flight queries evaluate once. Evaluation itself calls
// the same library seams as `hpcarbon run`/`sweep`/`trace`
// (deterministic, mc::substream-seeded where sampling is requested), so
// service answers agree with the offline tools.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fleetsim/engine.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/request.h"

namespace hpcarbon {
class ThreadPool;
}

namespace hpcarbon::serve {

/// Front-end transport instruments (the hpcarbon_net_* obs domain). The
/// socket server (src/net) owns one, registered in the same registry as
/// its engine, and updates it from its event loop and workers; the
/// {"op":"stats"} control request reads these series as its net_* fields,
/// so overload shedding and connection churn are observable in-band. The
/// pipe/batch front-ends have no transport, register none of them, and
/// read zeros. Each field is a monotonic tally, a level, or a high-water
/// mark, never a cross-field invariant.
struct FrontEndStats {
  /// Registers (idempotently) the hpcarbon_net_* series in `registry`.
  explicit FrontEndStats(obs::MetricsRegistry& registry);

  obs::Counter& connections_accepted;
  obs::Gauge& connections_active;
  obs::Counter& requests_shed;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Gauge& max_inflight;
};

struct ServeOptions {
  /// ResultCache geometry.
  std::size_t cache_shards = 8;
  std::size_t cache_bytes = 8u << 20;
  /// Pool handle_batch fans a segment's misses over; nullptr selects
  /// ThreadPool::global(). Responses are bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Trace source; nullptr selects TraceStore::global(). Its lookups
  /// count in the registry it was built on.
  TraceStore* traces = nullptr;
  /// Metrics sink, which the engine's cache counts into and stats and
  /// metrics read; nullptr selects obs::MetricsRegistry::global(). Tests
  /// asserting exact counts pass a private one and build their TraceStore
  /// on it.
  obs::MetricsRegistry* registry = nullptr;
  /// Daemon uptime in seconds, reported (floored) as the stats uptime_s
  /// field and the hpcarbon_process_uptime_seconds gauge. Unset (pipe /
  /// batch — no daemon) reports 0, keeping those modes time-independent.
  std::function<double()> uptime;
};

/// Append the canonical error-response document
/// `{"error":<what>,["id":<id>,]"ok":false}` (no trailing newline) to
/// `out`. Exposed so transport-level rejections (oversized lines,
/// overload shedding in src/net) emit bytes identical to the engine's own
/// error path. An empty id is omitted.
void append_error_response(std::string& out, std::string_view id,
                           std::string_view what);

/// Answer one validated query against the library (no caching). Returns
/// the result object; throws hpcarbon::Error for runtime failures (e.g. an
/// unreadable trace_csv path). Exposed for tests that compare service
/// answers against direct library calls.
json::Value evaluate(const Query& q, TraceStore& traces);

/// The trio engine a sched or fleetsim query runs on
/// (fleetsim::trio_engine): one counted preset lookup per listed region,
/// each site sharing its preset's prepared region from `traces`, with
/// tick 0 at the query's start month. Copies no trace. Exposed so tests
/// can check what a miss builds.
fleetsim::FleetEngine query_engine(const SchedQuery& q, TraceStore& traces);

/// Per-family instrument slot: resolved once at Engine construction so
/// the hot path records without touching the registry. The six query
/// families get the full set; the stats/metrics/error pseudo-families
/// (slots 6..8) count requests only.
struct FamilySlots {
  obs::Counter* requests = nullptr;
  obs::Histogram* parse_us = nullptr;  // begin_line's parse of a query
  obs::Histogram* eval_us = nullptr;   // evaluate + dump (cache misses)
  /// Engine time of one line: begin_line, plus finish_line when it
  /// defers — never the wait between the two halves.
  obs::Histogram* total_us = nullptr;
};

/// One valid request line, parsed exactly once: what Engine::begin_line
/// hands to Engine::finish_line when it cannot answer the line itself.
/// kStats / kMetrics are answered at their sequence points; kQuery goes
/// through the cache/evaluate path.
struct PlannedLine {
  enum class Kind { kStats, kMetrics, kQuery } kind = Kind::kQuery;
  Query q;                 // kQuery
  std::string control_id;  // kStats / kMetrics
  /// Engine time begin_line spent on a query it left for finish_line,
  /// which adds its own before recording total_us.
  std::uint64_t begin_ns = 0;
};

class Engine {
 public:
  /// Instrument-slot layout: query families 0..5 (query_families()
  /// order), then the control/error pseudo-families.
  static constexpr std::size_t kFamilyCount = 6;
  static constexpr std::size_t kStatsSlot = 6;
  static constexpr std::size_t kMetricsSlot = 7;
  static constexpr std::size_t kErrorSlot = 8;
  static constexpr std::size_t kSlotCount = 9;

  explicit Engine(ServeOptions opts = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One request line -> one response line (no trailing newline). Invalid
  /// requests yield ok:false responses, never throws. A line longer than
  /// kMaxRequestLineBytes (serve/limits.h) is rejected before parsing
  /// with the shared oversize error. The {"op":"stats"} and
  /// {"op":"metrics"} control requests answer counters / the obs
  /// snapshot and are themselves never cached.
  std::string handle_line(std::string_view line);

  /// handle_line, appended to a caller-owned buffer (identical bytes, no
  /// return-value string). The daemon loop and the load bench reuse one
  /// buffer across lines, so a warm request allocates nothing on this
  /// side of the cache. It is begin_line, then finish_line when
  /// begin_line leaves the line unanswered.
  void handle_line_to(std::string_view line, std::string& out);

  /// First half of handle_line_to: parse `line` once. An invalid request
  /// or a query whose result is cached is answered into `out` (same
  /// bytes, no trailing newline) and true is returned. Otherwise — a
  /// cache miss, {"op":"stats"} or {"op":"metrics"} — `out` is untouched,
  /// the parsed request is stored in `planned`, and false is returned.
  ///
  /// Each request counts exactly one cache lookup: this half counts a
  /// hit but not a miss (ResultCache::probe_append), and finish_line
  /// counts whatever its own lookup finds. So the hits, misses and
  /// inserts of a sequential stream equal the pipe's whichever thread
  /// runs each half, and a copy of a key queued behind that key's
  /// in-flight miss looks again when it is finished: it reuses the
  /// miss's fill instead of evaluating again.
  bool begin_line(std::string_view line, std::string& out,
                  PlannedLine& planned);

  /// Second half of handle_line_to: answer a line begin_line returned
  /// false for, appending to `out`. A query is looked up again and
  /// evaluated only on a miss; stats and metrics read the registry as of
  /// this call. Safe to call from any thread.
  void finish_line(const PlannedLine& planned, std::string& out);

  /// Answer a whole batch; responses are parallel to `lines` and
  /// byte-identical to feeding the lines through handle_line one at a
  /// time on an equally-warm engine (but for a stats line's two latency
  /// quantiles). A segment runs up to the next stats or metrics line, a
  /// sequence point: begin_line runs over the segment in input order on
  /// this thread, then the first miss of each canonical key runs
  /// finish_line over the pool, its repeats run finish_line after it in
  /// input order (a hit on its fill), and last the control line.
  /// Caveat: when the cache is so small that entries evict each other
  /// *within one segment*, leader puts race and the hit/miss/eviction
  /// counts a stats line reports can differ from sequential replay —
  /// query responses themselves never do.
  std::vector<std::string> handle_batch(const std::vector<std::string>& lines);

  CacheStats cache_stats() const { return cache_.stats(); }
  const ServeOptions& options() const { return opts_; }

  /// Set the uptime gauge from ServeOptions::uptime: the one step left
  /// before a snapshot (every count is recorded as it happens). The
  /// scrape socket runs it as its pre-scrape hook.
  void refresh_uptime() const;
  /// refresh_uptime(), then the registry snapshot: what {"op":"stats"},
  /// {"op":"metrics"}, --stats-interval and `metrics --local` all read.
  std::vector<obs::MetricSample> snapshot() const;
  obs::MetricsRegistry& registry() const;

 private:
  ThreadPool& pool() const;
  TraceStore& traces() const;
  /// {"op":"stats"} response body: a fixed projection of one snapshot().
  std::string stats_response(const std::string& id) const;
  /// {"op":"metrics"} response body: the obs snapshot as sorted-key JSON,
  /// transport-dependent domains excluded (see obs/export.h).
  std::string metrics_response(const std::string& id) const;

  ServeOptions opts_;
  /// Hot-path instrument slots (see FamilySlots); registered before cache_.
  std::array<FamilySlots, kSlotCount> slots_;
  ResultCache cache_;
  obs::Gauge& uptime_seconds_;
};

}  // namespace hpcarbon::serve
