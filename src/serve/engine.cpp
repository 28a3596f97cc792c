#include "serve/engine.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/error.h"
#include "core/thread_pool.h"
#include "core/time.h"
#include "mc/engine.h"
#include "obs/export.h"
#include "serve/limits.h"
#include "embodied/catalog.h"
#include "embodied/models.h"
#include "grid/analysis.h"
#include "hw/node.h"
#include "lifecycle/footprint.h"
#include "lifecycle/scenario.h"
#include "lifecycle/uncertainty.h"
#include "lifecycle/upgrade.h"
#include "fleetsim/ablation.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "op/pue.h"
#include "sched/workload_gen.h"
#include "workload/suite.h"

namespace hpcarbon::serve {

namespace {

/// The query's stored region: the imported file when trace_csv is given,
/// the generated preset otherwise. Both come pre-built from the store.
TraceStore::StoredPtr query_trace(const std::string& region,
                                  const std::string& trace_csv,
                                  TraceStore& traces) {
  if (!trace_csv.empty()) return traces.imported(region, trace_csv);
  return traces.preset(region);
}

json::Value evaluate_family(const EmbodiedQuery& q, TraceStore&) {
  const embodied::EmbodiedBreakdown b = embodied::embodied_of(q.part);
  json::Value out = json::Value::object();
  out.set("display_name", json::Value::string(embodied::display_name(q.part)));
  out.set("manufacturing_g", json::Value::number(b.manufacturing.to_grams()));
  out.set("packaging_g", json::Value::number(b.packaging.to_grams()));
  out.set("packaging_share", json::Value::number(b.packaging_share()));
  out.set("total_g", json::Value::number(b.total().to_grams()));
  return out;
}

json::Value evaluate_family(const LifetimeQuery& q, TraceStore& traces) {
  const hw::NodeConfig node = q.node();
  const op::PueModel pue(q.pue);
  const HourOfYear start(month_start_hour(q.start_month));
  const auto stored = query_trace(q.region, q.trace_csv, traces);
  const grid::CarbonIntensityTrace& trace = stored->trace;

  const lifecycle::TotalFootprint fp = lifecycle::node_lifetime_footprint(
      node, q.suite, q.gpu_usage, q.years, trace, start, pue);
  json::Value out = json::Value::object();
  out.set("embodied_g", json::Value::number(fp.embodied.to_grams()));
  out.set("embodied_share", json::Value::number(fp.embodied_share()));
  out.set("operational_g", json::Value::number(fp.operational.to_grams()));
  out.set("total_g", json::Value::number(fp.total().to_grams()));
  if (!stored->note.empty()) {
    out.set("import", json::Value::string(stored->note));
  }

  if (q.samples > 0) {
    lifecycle::LifecycleBands bands;  // default embodied bands
    bands.grid_ci = q.grid_band;
    const mc::SamplePlan plan{q.samples, q.seed, nullptr};
    const lifecycle::FootprintDistribution d =
        lifecycle::node_lifetime_footprint_distribution(
            node, q.suite, q.gpu_usage, q.years, trace, start, pue, bands,
            plan);
    out.set("samples", json::Value::number(q.samples));
    out.set("total_p05_g", json::Value::number(d.total.p05()));
    out.set("total_p50_g", json::Value::number(d.total.p50()));
    out.set("total_p95_g", json::Value::number(d.total.p95()));
  }
  return out;
}

json::Value evaluate_family(const BreakevenQuery& q, TraceStore&) {
  lifecycle::UpgradeScenario s;
  s.old_node = q.old_node();
  s.new_node = q.new_node();
  s.suite = q.suite;
  s.intensity = CarbonIntensity::grams_per_kwh(q.intensity_g_per_kwh);
  s.usage = lifecycle::UsageProfile{q.gpu_usage};
  s.pue = op::PueModel(q.pue);
  const lifecycle::GridTrajectory traj(s.intensity, q.annual_decline);

  const auto be = lifecycle::breakeven_years(s, traj, q.horizon_years);
  json::Value out = json::Value::object();
  out.set("asymptotic_savings_pct",
          json::Value::number(lifecycle::asymptotic_savings_percent(s)));
  out.set("breakeven_years",
          be ? json::Value::number(*be) : json::Value::null());
  out.set("pays_back", json::Value::boolean(be.has_value()));
  out.set("savings_pct_at_horizon",
          json::Value::number(
              lifecycle::savings_percent(s, traj, q.horizon_years)));
  return out;
}

/// The policy-vs-baseline answer both trio families share: the query's
/// policy scored against fcfs-local on `jobs`. Writes the policy's metrics
/// and its savings into `out` and returns the metrics for
/// family-specific fields.
sched::ScheduleMetrics policy_vs_baseline(const SchedQuery& q,
                                          const fleetsim::FleetEngine& engine,
                                          const fleetsim::FleetJobs& jobs,
                                          json::Value& out) {
  const fleetsim::Ablation ablation =
      fleetsim::run_ablation(engine, jobs, {q.policy});
  const fleetsim::PolicyScore& score = ablation.policies[0];
  const sched::ScheduleMetrics& metrics = score.metrics;
  out.set("baseline_carbon_kg",
          json::Value::number(ablation.baseline.total_carbon.to_kilograms()));
  out.set("carbon_kg", json::Value::number(metrics.total_carbon.to_kilograms()));
  out.set("jobs", json::Value::number(static_cast<double>(jobs.size())));
  out.set("jobs_completed", json::Value::number(metrics.jobs_completed));
  out.set("mean_wait_hours", json::Value::number(metrics.mean_wait_hours));
  out.set("p95_wait_hours", json::Value::number(metrics.p95_wait_hours));
  out.set("remote_dispatches", json::Value::number(metrics.remote_dispatches));
  out.set("savings_pct", json::Value::number(score.savings_pct));
  return metrics;
}

json::Value evaluate_family(const SchedQuery& q, TraceStore& traces) {
  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * q.days;
  wp.arrival_rate_per_hour = q.rate;
  wp.seed = q.seed;
  const fleetsim::FleetEngine engine = query_engine(q, traces);
  json::Value out = json::Value::object();
  policy_vs_baseline(q, engine,
                     fleetsim::FleetJobs(
                         sched::generate_jobs(wp),
                         sched::generated_user_names(wp.user_count)),
                     out);
  return out;
}

json::Value evaluate_family(const FleetsimQuery& q, TraceStore& traces) {
  fleetsim::FleetWorkloadParams wp;
  wp.process = q.process;
  wp.horizon_hours = 24.0 * q.days;
  wp.rate_per_hour = q.rate;
  wp.seed = q.seed;
  const fleetsim::FleetEngine engine = query_engine(q, traces);
  json::Value out = json::Value::object();
  const sched::ScheduleMetrics metrics =
      policy_vs_baseline(q, engine, fleetsim::generate_fleet_jobs(wp), out);
  out.set("process", json::Value::string(fleetsim::to_string(wp.process)));
  out.set("utilization", json::Value::number(metrics.utilization));

  if (q.samples > 0) {
    // Savings quantiles over workload seeds. The null pool selects the
    // global pool, yet the request still runs on this thread: validation
    // caps samples at 64, and mc::Engine hands the pool blocks of 256
    // samples, so every request is one block, run inline.
    const mc::SamplePlan plan{q.samples, q.seed, nullptr};
    const mc::Distribution d =
        fleetsim::savings_distributions(
            engine, {q.policy}, plan, [&wp](std::uint64_t seed) {
              fleetsim::FleetWorkloadParams sample = wp;
              sample.seed = seed;
              return fleetsim::generate_fleet_jobs(sample);
            })[0];
    out.set("samples", json::Value::number(q.samples));
    out.set("savings_p05", json::Value::number(d.p05()));
    out.set("savings_p50", json::Value::number(d.p50()));
    out.set("savings_p95", json::Value::number(d.p95()));
  }
  return out;
}

json::Value evaluate_family(const TraceQuery& q, TraceStore& traces) {
  const auto stored = query_trace(q.region, q.trace_csv, traces);
  const grid::CarbonIntensityTrace& trace = stored->trace;
  const grid::RegionSummary& summary = stored->summary;

  json::Value out = json::Value::object();
  out.set("cov_pct", json::Value::number(summary.cov_percent));
  out.set("max", json::Value::number(summary.box.max));
  out.set("mean", json::Value::number(summary.box.mean));
  out.set("median", json::Value::number(summary.box.median));
  out.set("min", json::Value::number(summary.box.min));
  out.set("p25", json::Value::number(summary.box.q1));
  out.set("p75", json::Value::number(summary.box.q3));
  out.set("samples", json::Value::number(static_cast<double>(trace.size())));
  out.set("step_seconds", json::Value::number(trace.step_seconds()));
  if (!stored->note.empty()) {
    out.set("import", json::Value::string(stored->note));
  }
  if (const auto& w = q.window) {
    // O(1) through the prefix sums the trace was built with.
    const double sum = trace.interval_sum(w->start_hour, w->hours);
    out.set("window_mean", json::Value::number(sum / w->hours));
  }
  return out;
}

// --- Response assembly ------------------------------------------------------
//
// Responses are assembled as text around the cached result document, so a
// cache hit and a fresh evaluation emit byte-identical lines. Key order
// is the sorted order dump(sort_keys) would produce.

/// Append the success-response text up to (and including) "result": — the
/// caller appends the result document and the closing brace. Splitting
/// here lets a cache hit stream the cached bytes straight into the
/// response buffer (ResultCache::get_append).
void success_prefix_to(std::string& out, const std::string& id,
                       const std::string& op) {
  out.push_back('{');
  if (!id.empty()) {
    out += "\"id\":";
    json::quote_to(out, id);
    out.push_back(',');
  }
  out += "\"ok\":true,\"op\":";
  json::quote_to(out, op);
  out += ",\"result\":";
}

/// The id of a parsed request document, for error correlation on
/// documents that fail validation; empty when there is no string id.
std::string salvage_id(const json::Reader& reader, json::Reader::Ref doc) {
  if (reader.is_object(doc)) {
    if (const json::Reader::Ref id = reader.find(doc, "id");
        id != json::Reader::kNone && reader.is_string(id)) {
      return std::string(reader.as_string(id));
    }
  }
  return {};
}

/// Parse `line` into `p` and return true, or answer it: an invalid line
/// appends its error response to `out` and returns false.
bool plan_line(std::string_view line, std::string& out, PlannedLine& p) {
  auto fail = [&out](std::string_view id, std::string_view what) {
    append_error_response(out, id, what);
    return false;
  };
  // Reject oversized lines before parsing (and before any id salvage —
  // the streaming front-ends never materialize the oversized bytes, so
  // answering without an id is what keeps every transport byte-identical
  // here). serve/limits.h owns the shared constant and message.
  if (line.size() > kMaxRequestLineBytes) {
    return fail({}, oversize_line_error(line.size()));
  }
  // One reader per thread: node pool and unescape arena warm up once and
  // every subsequent line parses with zero allocations. plan_line only
  // runs inside begin_line, on the calling thread (finish_line answers
  // already-planned lines), and nothing below keeps views into the reader
  // past the next parse — PlannedLine owns its strings.
  thread_local json::Reader reader;
  constexpr json::Reader::Ref kNone = json::Reader::kNone;
  json::Reader::Ref doc = kNone;
  try {
    doc = reader.parse(line);
  } catch (const Error& e) {
    return fail({}, e.what());
  }
  if (reader.is_object(doc)) {
    if (const json::Reader::Ref op = reader.find(doc, "op");
        op != kNone && reader.is_string(op) &&
        (reader.as_string(op) == "stats" ||
         reader.as_string(op) == "metrics")) {
      const bool is_stats = reader.as_string(op) == "stats";
      // The control requests are validated as strictly as any family:
      // unknown fields and a non-string id are errors, not defaults.
      for (json::Reader::Ref f = reader.first_child(doc); f != kNone;
           f = reader.next(f)) {
        const std::string_view k = reader.key(f);
        if (k != "op" && k != "id") {
          return fail(salvage_id(reader, doc),
                      "request has unknown top-level field '" +
                          std::string(k) + "' (" +
                          (is_stats ? "stats" : "metrics") +
                          " takes only op and id)");
        }
      }
      p.control_id.clear();
      if (const json::Reader::Ref id = reader.find(doc, "id"); id != kNone) {
        if (!reader.is_string(id)) {
          return fail({}, "request 'id' must be a string");
        }
        p.control_id = reader.as_string(id);
      }
      p.kind =
          is_stats ? PlannedLine::Kind::kStats : PlannedLine::Kind::kMetrics;
      return true;
    }
  }
  try {
    p.q = parse_query(reader, doc);
  } catch (const Error& e) {
    return fail(salvage_id(reader, doc), e.what());
  }
  p.kind = PlannedLine::Kind::kQuery;
  return true;
}

}  // namespace

void append_error_response(std::string& out, std::string_view id,
                           std::string_view what) {
  out += "{\"error\":";
  json::quote_to(out, what);
  if (!id.empty()) {
    out += ",\"id\":";
    json::quote_to(out, id);
  }
  out += ",\"ok\":false}";
}

std::string oversize_line_error(std::size_t line_bytes) {
  return "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
         " bytes (got " + std::to_string(line_bytes) + ")";
}

fleetsim::FleetEngine query_engine(const SchedQuery& q, TraceStore& traces) {
  std::vector<sched::RegionPtr> regions;
  regions.reserve(q.regions.size());
  for (const auto& code : q.regions) {
    regions.push_back(traces.preset(code)->prepared);
  }
  return fleetsim::trio_engine(regions, q.capacity,
                               HourOfYear(month_start_hour(q.start_month)));
}

json::Value evaluate(const Query& q, TraceStore& traces) {
  return std::visit(
      [&traces](const auto& params) { return evaluate_family(params, traces); },
      q.params);
}

FrontEndStats::FrontEndStats(obs::MetricsRegistry& registry)
    : connections_accepted(registry.counter(
          "hpcarbon_net_connections_accepted_total", "",
          "Connections accepted by the socket front-end.")),
      connections_active(
          registry.gauge("hpcarbon_net_connections_active", "",
                         "Currently open client connections.")),
      requests_shed(
          registry.counter("hpcarbon_net_requests_shed_total", "",
                           "Requests rejected by overload shedding.")),
      bytes_in(registry.counter("hpcarbon_net_bytes_in_total", "",
                                "Request bytes read from clients.")),
      bytes_out(registry.counter("hpcarbon_net_bytes_out_total", "",
                                 "Response bytes written to clients.")),
      max_inflight(
          registry.gauge("hpcarbon_net_max_inflight", "",
                         "High-water mark of requests in flight.")) {}

namespace {

// An engine registers in one fixed order — family slots, its cache, the
// trace store, build info, uptime, the compute kernels — so every engine,
// whatever its transport, exposes the same metric set in the same order
// (see the idle-snapshot contract in obs/metrics.h).
std::array<FamilySlots, Engine::kSlotCount> register_family_slots(
    obs::MetricsRegistry& reg) {
  const std::vector<std::string> families = query_families();
  HPC_REQUIRE(families.size() == Engine::kFamilyCount,
              "engine instrument slots out of sync with query_families()");
  auto label = [](const std::string& family) {
    return "family=\"" + family + "\"";
  };
  std::array<FamilySlots, Engine::kSlotCount> slots{};
  for (std::size_t i = 0; i < Engine::kFamilyCount; ++i) {
    FamilySlots& s = slots[i];
    const std::string l = label(families[i]);
    s.requests = &reg.counter("hpcarbon_serve_requests_total", l,
                              "Requests answered, by family.");
    s.parse_us = &reg.histogram("hpcarbon_serve_parse_latency_us", l,
                                "Request parse+validate latency.");
    s.eval_us = &reg.histogram("hpcarbon_serve_eval_latency_us", l,
                               "Cache-miss evaluate+serialize latency.");
    s.total_us =
        &reg.histogram("hpcarbon_serve_total_latency_us", l,
                       "End-to-end request latency, line in to line out.");
  }
  for (const auto& [slot, name] : {std::pair{Engine::kStatsSlot, "stats"},
                                   {Engine::kMetricsSlot, "metrics"},
                                   {Engine::kErrorSlot, "error"}}) {
    slots[slot].requests = &reg.counter("hpcarbon_serve_requests_total",
                                        label(name),
                                        "Requests answered, by family.");
  }
  return slots;
}

/// The series after the cache's; returns the uptime gauge. Subsystems that
/// may count into another registry (trace store, pool, mc, fleetsim) are
/// registered here too, so every engine exposes one metric set.
obs::Gauge& register_process_series(obs::MetricsRegistry& reg) {
  TraceStore::register_metrics(reg);
  reg.gauge("hpcarbon_build_info",
            "version=\"" + obs::build_fingerprint() + "\"",
            "Build fingerprint; value is always 1.")
      .set(1);
  obs::Gauge& uptime = reg.gauge(
      "hpcarbon_process_uptime_seconds", "",
      "Daemon uptime (whole seconds; 0 for the pipe/batch front-ends).");
  ThreadPool::register_metrics(reg);
  mc::register_metrics(reg);
  fleetsim::register_metrics(reg);
  return uptime;
}

/// {"op":"stats"} fields that each read one counter or gauge series. A
/// series nobody registered reads 0: the net_* fields on the pipe/batch
/// front-ends, which have no transport.
constexpr std::pair<const char*, const char*> kStatsSeries[] = {
    {"bytes", "hpcarbon_cache_bytes"},
    {"entries", "hpcarbon_cache_entries"},
    {"evictions", "hpcarbon_cache_evictions_total"},
    {"hits", "hpcarbon_cache_hits_total"},
    {"inserts", "hpcarbon_cache_inserts_total"},
    {"misses", "hpcarbon_cache_misses_total"},
    {"net_accepted", "hpcarbon_net_connections_accepted_total"},
    {"net_active", "hpcarbon_net_connections_active"},
    {"net_bytes_in", "hpcarbon_net_bytes_in_total"},
    {"net_bytes_out", "hpcarbon_net_bytes_out_total"},
    {"net_max_inflight", "hpcarbon_net_max_inflight"},
    {"net_shed", "hpcarbon_net_requests_shed_total"},
    {"trace_entries", "hpcarbon_trace_store_entries"},
    {"trace_hits", "hpcarbon_trace_store_hits_total"},
    {"trace_misses", "hpcarbon_trace_store_misses_total"},
    {"uptime_s", "hpcarbon_process_uptime_seconds"},
};

}  // namespace

Engine::Engine(ServeOptions opts)
    : opts_(std::move(opts)),
      slots_(register_family_slots(registry())),
      cache_(opts_.cache_shards, opts_.cache_bytes, &registry()),
      uptime_seconds_(register_process_series(registry())) {}

ThreadPool& Engine::pool() const {
  return opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
}

TraceStore& Engine::traces() const {
  return opts_.traces != nullptr ? *opts_.traces : TraceStore::global();
}

obs::MetricsRegistry& Engine::registry() const {
  return opts_.registry != nullptr ? *opts_.registry
                                   : obs::MetricsRegistry::global();
}

void Engine::refresh_uptime() const {
  uptime_seconds_.set(
      opts_.uptime ? static_cast<std::int64_t>(opts_.uptime()) : 0);
}

std::vector<obs::MetricSample> Engine::snapshot() const {
  refresh_uptime();
  return registry().snapshot();
}

std::string Engine::metrics_response(const std::string& id) const {
  const json::Value body =
      obs::to_json(snapshot(), {"hpcarbon_net_", "hpcarbon_process_"});
  std::string response;
  success_prefix_to(response, id, "metrics");
  body.dump_to(response, /*sort_keys=*/true);
  response.push_back('}');
  return response;
}

std::string Engine::stats_response(const std::string& id) const {
  std::unordered_map<std::string, double> value_of;  // by series id
  // End-to-end line latency over all query families (the total_us
  // histograms merged — associative, so the merge order is irrelevant).
  // Every front-end records one total_us per query line, so lat_count
  // reads the same on each.
  obs::Histogram::Snapshot lat;
  for (const obs::MetricSample& s : snapshot()) {
    if (s.name == "hpcarbon_serve_total_latency_us") lat.merge(s.hist);
    value_of.emplace(s.id(), static_cast<double>(s.value));
  }
  auto series = [&](const std::string& series_id) {
    const auto it = value_of.find(series_id);
    return json::Value::number(it == value_of.end() ? 0.0 : it->second);
  };
  auto number = [](auto v) {
    return json::Value::number(static_cast<double>(v));
  };
  json::Value out = json::Value::object();
  for (const auto& [field, series_id] : kStatsSeries) {
    out.set(field, series(series_id));
  }
  out.set("lat_count", number(lat.count));
  out.set("lat_p50_us", number(lat.quantile_us(0.50)));
  out.set("lat_p99_us", number(lat.quantile_us(0.99)));
  // Per-shard occupancy, in shard order: imbalance (a hot shard thrashing
  // while others idle) is invisible in the totals.
  json::Value shard_bytes = json::Value::array();
  json::Value shard_entries = json::Value::array();
  for (std::size_t i = 0; i < cache_.shard_count(); ++i) {
    const std::string l = "{shard=\"" + std::to_string(i) + "\"}";
    shard_bytes.push_back(series("hpcarbon_cache_shard_bytes" + l));
    shard_entries.push_back(series("hpcarbon_cache_shard_entries" + l));
  }
  out.set("shard_bytes", std::move(shard_bytes));
  out.set("shard_entries", std::move(shard_entries));
  out.set("build", json::Value::string(obs::build_fingerprint()));
  out.set("byte_budget", number(cache_.byte_budget()));
  out.set("shards", number(cache_.shard_count()));
  std::string response;
  success_prefix_to(response, id, "stats");
  out.dump_to(response, /*sort_keys=*/true);
  response.push_back('}');
  return response;
}

std::string Engine::handle_line(std::string_view line) {
  std::string out;
  handle_line_to(line, out);
  return out;
}

void Engine::handle_line_to(std::string_view line, std::string& out) {
  PlannedLine planned;
  if (!begin_line(line, out, planned)) finish_line(planned, out);
}

bool Engine::begin_line(std::string_view line, std::string& out,
                        PlannedLine& planned) {
  // The hot-path instrumentation cost on a warm hit is three ticks()
  // reads and two histogram records (~tens of ns): parse and total
  // latency. Eval latency is recorded only on misses.
  const std::uint64_t t0 = obs::ticks();
  if (!plan_line(line, out, planned)) {
    slots_[kErrorSlot].requests->inc();
    return true;
  }
  if (planned.kind != PlannedLine::Kind::kQuery) return false;
  const Query& q = planned.q;
  const FamilySlots& slot = slots_[static_cast<std::size_t>(q.family)];
  slot.parse_us->record_ns(obs::elapsed_ns(t0, obs::ticks()));
  const std::size_t mark = out.size();
  success_prefix_to(out, q.id, q.op);
  if (cache_.probe_append(q.key, q.canonical, out)) {
    out.push_back('}');
    slot.total_us->record_ns(obs::elapsed_ns(t0, obs::ticks()));
    slot.requests->inc();
    return true;
  }
  out.resize(mark);  // a miss: finish_line writes the whole line
  planned.begin_ns = obs::elapsed_ns(t0, obs::ticks());
  return false;
}

void Engine::finish_line(const PlannedLine& planned, std::string& out) {
  switch (planned.kind) {
    case PlannedLine::Kind::kStats:
      out += stats_response(planned.control_id);
      slots_[kStatsSlot].requests->inc();
      return;
    case PlannedLine::Kind::kMetrics:
      // Counted after the snapshot: a metrics response never includes
      // itself, so the first scrape of an idle engine reads identically
      // on every transport.
      out += metrics_response(planned.control_id);
      slots_[kMetricsSlot].requests->inc();
      return;
    case PlannedLine::Kind::kQuery:
      break;
  }
  const std::uint64_t t0 = obs::ticks();
  const Query& q = planned.q;
  const FamilySlots& slot = slots_[static_cast<std::size_t>(q.family)];
  const std::size_t mark = out.size();
  success_prefix_to(out, q.id, q.op);
  if (cache_.get_append(q.key, q.canonical, out)) {
    out.push_back('}');
  } else {
    try {
      const std::uint64_t t_eval = obs::ticks();
      const std::string result =
          evaluate(q, traces()).dump(/*sort_keys=*/true);
      slot.eval_us->record_ns(obs::elapsed_ns(t_eval, obs::ticks()));
      cache_.put(q.key, q.canonical, result);
      out += result;
      out.push_back('}');
    } catch (const Error& e) {
      // Runtime failures are not cached.
      out.resize(mark);  // drop the success prefix
      append_error_response(out, q.id, e.what());
    }
  }
  slot.total_us->record_ns(planned.begin_ns +
                           obs::elapsed_ns(t0, obs::ticks()));
  slot.requests->inc();
}

std::vector<std::string> Engine::handle_batch(
    const std::vector<std::string>& lines) {
  // A stats or metrics line ends a segment: it reports the counters after
  // everything before it and nothing after it, as a sequential handle_line
  // replay would. Each leader writes only its own response, so the
  // fan-out is race-free and the output is bit-identical for any worker
  // count (evaluation is deterministic per canonical query). A repeat
  // reads its leader's fill (a counted hit, as in a sequential replay);
  // if the leader failed or its entry was already evicted — tiny budgets
  // — the repeat takes the same miss -> evaluate path a sequential replay
  // would, and deterministic evaluation reproduces the same bytes.
  std::vector<std::string> responses(lines.size());
  std::vector<PlannedLine> planned(lines.size());
  std::unordered_set<std::uint64_t> led;  // canonical keys with a leader
  std::vector<std::size_t> leaders, repeats;
  auto finish_segment = [&] {
    pool().parallel_for(0, leaders.size(), [&](std::size_t k) {
      finish_line(planned[leaders[k]], responses[leaders[k]]);
    });
    for (const std::size_t i : repeats) finish_line(planned[i], responses[i]);
    led.clear();
    leaders.clear();
    repeats.clear();
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (begin_line(lines[i], responses[i], planned[i])) continue;
    if (planned[i].kind == PlannedLine::Kind::kQuery) {
      (led.insert(planned[i].q.key).second ? leaders : repeats).push_back(i);
      continue;
    }
    finish_segment();
    finish_line(planned[i], responses[i]);  // the stats or metrics line
  }
  finish_segment();
  return responses;
}

}  // namespace hpcarbon::serve
