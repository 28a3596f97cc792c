#include "serve/request.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/error.h"
#include "core/time.h"
#include "grid/presets.h"
#include "sched/policy.h"

namespace hpcarbon::serve {

namespace {

/// Largest integer parameter the canonical form can carry exactly: the
/// normalized document stores numbers as doubles, so anything above 2^53
/// would canonicalize lossily.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// Strict, consuming view over a request's params object (a json::Reader
/// ref). Every getter validates its field, records it as consumed, and
/// emits the normalized value (default filled, name canonicalized) as a
/// pre-dumped canonical fragment; finish() rejects any field no getter
/// claimed. canonical_params() assembles the sorted {"k":v,...} object
/// text directly — the fragments byte-match what Value::dump(sort_keys)
/// of the equivalent document would produce, so canonical keys (and every
/// cached entry) are unchanged by the zero-copy rework.
class ParamReader {
 public:
  using Ref = json::Reader::Ref;
  static constexpr Ref kNone = json::Reader::kNone;

  ParamReader(const json::Reader& reader, Ref params, std::string_view op)
      : reader_(reader), params_(params), op_(op) {}

  bool has(const char* key) const {
    return params_ != kNone && reader_.find(params_, key) != kNone;
  }

  double number(const char* key, double def, double lo, double hi) {
    double v = def;
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_number(f)) fail(key, "must be a number");
      v = reader_.as_number(f);
    }
    if (!(v >= lo && v <= hi)) {
      fail(key, "must be in [" + json::dump_number(lo) + ", " +
                    json::dump_number(hi) + "]");
    }
    emit_number(key, v);
    return v;
  }

  long integer(const char* key, long def, long lo, long hi) {
    double v = static_cast<double>(def);
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_number(f)) fail(key, "must be an integer");
      v = reader_.as_number(f);
      if (v != std::floor(v) || std::abs(v) > kMaxExactInt) {
        fail(key, "must be an integer");
      }
    }
    const long n = static_cast<long>(v);
    if (n < lo || n > hi) {
      fail(key, "must be in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }
    emit_number(key, static_cast<double>(n));
    return n;
  }

  std::string str(const char* key, const char* def) {
    std::string_view v = def;
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_string(f)) fail(key, "must be a string");
      v = reader_.as_string(f);
    }
    emit_string(key, v);
    return std::string(v);
  }

  std::string required_str(const char* key) {
    const Ref f = claim(key);
    if (f == kNone) fail(key, "is required");
    if (!reader_.is_string(f)) fail(key, "must be a string");
    const std::string_view v = reader_.as_string(f);
    emit_string(key, v);
    return std::string(v);
  }

  /// Optional string; absent fields stay absent in the normalized params
  /// (no default exists — e.g. trace_csv paths).
  std::string optional_str(const char* key) {
    const Ref f = claim(key);
    if (f == kNone) return {};
    if (!reader_.is_string(f) || reader_.as_string(f).empty()) {
      fail(key, "must be a non-empty string");
    }
    const std::string_view v = reader_.as_string(f);
    emit_string(key, v);
    return std::string(v);
  }

  /// Replace the normalized value of an already-claimed field (name
  /// canonicalization: short policy names, etc.).
  void rewrite(const char* key, std::string canonical_value) {
    for (auto& [k, frag] : fields_) {
      if (k == key) {
        frag = json::quote(canonical_value);
        return;
      }
    }
  }

  std::vector<std::string> string_array(const char* key,
                                        std::vector<std::string> def,
                                        std::size_t min_len,
                                        std::size_t max_len) {
    std::vector<std::string> v = std::move(def);
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_array(f)) fail(key, "must be an array of strings");
      v.clear();
      for (Ref item = reader_.first_child(f); item != kNone;
           item = reader_.next(item)) {
        if (!reader_.is_string(item)) fail(key, "must be an array of strings");
        v.emplace_back(reader_.as_string(item));
      }
    }
    if (v.size() < min_len || v.size() > max_len) {
      fail(key, "must have between " + std::to_string(min_len) + " and " +
                    std::to_string(max_len) + " entries");
    }
    std::string frag = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) frag.push_back(',');
      json::quote_to(frag, v[i]);
    }
    frag.push_back(']');
    fields_.emplace_back(key, std::move(frag));
    return v;
  }

  [[noreturn]] void fail(const char* key, const std::string& what) const {
    throw Error("query '" + std::string(op_) + "': parameter '" + key + "' " +
                what);
  }

  void finish() {
    if (params_ == kNone) return;
    for (Ref f = reader_.first_child(params_); f != kNone;
         f = reader_.next(f)) {
      const std::string_view k = reader_.key(f);
      if (std::find(consumed_.begin(), consumed_.end(), k) ==
          consumed_.end()) {
        throw Error("query '" + std::string(op_) + "': unknown parameter '" +
                    std::string(k) + "'");
      }
    }
  }

  /// The sorted-canonical params object text ({"a":1,"b":"x"}), appended.
  void canonical_params_to(std::string& out) {
    std::sort(fields_.begin(), fields_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.push_back('{');
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out.push_back(',');
      json::quote_to(out, fields_[i].first);
      out.push_back(':');
      out += fields_[i].second;
    }
    out.push_back('}');
  }

 private:
  Ref claim(const char* key) {
    consumed_.push_back(key);
    return params_ == kNone ? kNone : reader_.find(params_, key);
  }

  void emit_number(const char* key, double v) {
    std::string frag;
    json::dump_number_to(frag, v);
    fields_.emplace_back(key, std::move(frag));
  }

  void emit_string(const char* key, std::string_view v) {
    fields_.emplace_back(key, json::quote(v));
  }

  const json::Reader& reader_;
  Ref params_;
  std::string_view op_;
  /// Getter keys are string literals with static storage, so views are
  /// safe to hold.
  std::vector<std::string_view> consumed_;
  /// (key, dumped fragment) in claim order; sorted once at assembly.
  std::vector<std::pair<std::string_view, std::string>> fields_;
};

const std::vector<std::pair<const char*, embodied::PartId>>& slug_table() {
  using embodied::PartId;
  static const std::vector<std::pair<const char*, PartId>> table = {
      {"mi250x", PartId::kMi250x},
      {"a100-pcie-40", PartId::kA100Pcie40},
      {"v100-sxm2-32", PartId::kV100Sxm2_32},
      {"epyc-7763", PartId::kEpyc7763},
      {"epyc-7742", PartId::kEpyc7742},
      {"xeon-gold-6240r", PartId::kXeonGold6240R},
      {"dram-64gb-ddr4", PartId::kDram64GbDdr4},
      {"ssd-nytro-3530", PartId::kSsdNytro3530_3_2Tb},
      {"hdd-exos-x16", PartId::kHddExosX16_16Tb},
      {"p100-pcie-16", PartId::kP100Pcie16},
      {"a100-sxm4-40", PartId::kA100Sxm4_40},
      {"xeon-e5-2680", PartId::kXeonE5_2680},
      {"epyc-7542", PartId::kEpyc7542},
  };
  return table;
}

void check_region(ParamReader& r, const char* key, const std::string& code) {
  if (!grid::find_region(code)) {
    std::string known;
    for (const auto& c : grid::codes_of(grid::all_regions())) {
      known += (known.empty() ? "" : ", ") + c;
    }
    r.fail(key, "names no Table 3 region (known: " + known + ")");
  }
}

void check_node(ParamReader& r, const char* key, const std::string& node) {
  if (node != "p100" && node != "v100" && node != "a100") {
    r.fail(key, "must be one of p100, v100, a100");
  }
}

void check_suite(ParamReader& r, const char* key, const std::string& suite) {
  if (suite != "nlp" && suite != "vision" && suite != "candle") {
    r.fail(key, "must be one of nlp, vision, candle");
  }
}

void normalize_embodied(ParamReader& r) {
  const std::string part = r.required_str("part");
  const auto& table = slug_table();
  const bool known = std::any_of(table.begin(), table.end(), [&](auto& e) {
    return part == e.first;
  });
  if (!known) {
    std::string slugs;
    for (const auto& s : part_slugs()) slugs += (slugs.empty() ? "" : ", ") + s;
    r.fail("part", "names no catalog part (known: " + slugs + ")");
  }
}

void normalize_lifetime(ParamReader& r) {
  check_node(r, "node", r.required_str("node"));
  check_suite(r, "suite", r.str("suite", "nlp"));
  r.number("years", 5.0, 0.1, 100.0);
  r.number("gpu_usage", 0.40, 0.01, 1.0);
  check_region(r, "region", r.str("region", "CISO"));
  r.optional_str("trace_csv");
  r.integer("start_month", 5, 0, 11);
  r.number("pue", 1.2, 1.0, 3.0);
  // samples > 0 switches on the Monte-Carlo quantile columns; the draws
  // ride mc::substream(seed, i) so the answer is bit-identical whatever
  // pool executes it.
  r.integer("samples", 0, 0, 1000000);
  r.integer("seed", 42, 0, static_cast<long>(kMaxExactInt));
  r.number("grid_band", 0.10, 0.0, 0.99);
}

void normalize_breakeven(ParamReader& r) {
  check_node(r, "old_node", r.str("old_node", "v100"));
  check_node(r, "new_node", r.str("new_node", "a100"));
  check_suite(r, "suite", r.str("suite", "nlp"));
  r.number("intensity_g_per_kwh", 200.0, 1.0, 10000.0);
  r.number("annual_decline", 0.03, 0.0, 0.999);
  r.number("horizon_years", 15.0, 0.1, 200.0);
  r.number("gpu_usage", 0.40, 0.01, 1.0);
  r.number("pue", 1.2, 1.0, 3.0);
}

/// The trio contract the sched and fleetsim families share: regions[0] is
/// the home site and the engine adds the two cleanest others as remote
/// options, mirroring `hpcarbon run`; the policy must be registered.
void normalize_trio(ParamReader& r) {
  const auto regions = r.string_array(
      "regions", {"ERCOT", "ESO", "CISO"}, 1, grid::all_regions().size());
  std::set<std::string> seen;
  for (const auto& code : regions) {
    check_region(r, "regions", code);
    if (!seen.insert(code).second) {
      r.fail("regions", "lists region '" + code + "' twice");
    }
  }
  const std::string policy = r.required_str("policy");
  const auto desc = sched::find_policy(policy);
  if (!desc) {
    std::string known;
    for (const auto& d : sched::registered_policies()) {
      known += (known.empty() ? "" : ", ") + d.short_name;
    }
    r.fail("policy", "names no registered policy (known: " + known + ")");
  }
  // Short names resolve to the canonical name before hashing, so
  // {"policy":"greedy"} and {"policy":"greedy-lowest-ci"} share a cache
  // entry.
  r.rewrite("policy", desc->name);
}

/// Cross-field guard both trio families share: the engine simulates
/// millions of jobs per second, but a serve answer should still be
/// interactive, so bound the expected job count, not each factor alone.
void check_expected_jobs(ParamReader& r, double rate, double days) {
  if (rate * 24.0 * days > 4.0e6) {
    r.fail("rate", "implies more than 4000000 expected jobs (rate * days * "
                   "24); lower rate or days");
  }
}

void normalize_sched(ParamReader& r) {
  normalize_trio(r);
  const double days = r.number("days", 28.0, 0.5, 366.0);
  const double rate = r.number("rate", 2.5, 0.01, 1000.0);
  check_expected_jobs(r, rate, days);
  r.integer("capacity", 16, 1, 4096);
  r.integer("start_month", 5, 0, 11);
  r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
}

void normalize_fleetsim(ParamReader& r) {
  normalize_trio(r);
  const std::string process = r.str("process", "poisson");
  if (process != "poisson" && process != "diurnal" && process != "bursty") {
    r.fail("process", "must be one of poisson, diurnal, bursty");
  }
  const double days = r.number("days", 28.0, 0.5, 366.0);
  const double rate = r.number("rate", 4.0, 0.01, 10000.0);
  check_expected_jobs(r, rate, days);
  r.integer("capacity", 16, 1, 4096);
  r.integer("start_month", 5, 0, 11);
  // samples > 0 adds savings quantiles over workload seeds (bounded: each
  // sample is two full fleet runs).
  r.integer("samples", 0, 0, 64);
  r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
}

void normalize_trace(ParamReader& r) {
  check_region(r, "region", r.required_str("region"));
  r.optional_str("trace_csv");
  const bool has_start = r.has("window_start_hour");
  const bool has_len = r.has("window_hours");
  if (has_start != has_len) {
    r.fail(has_start ? "window_hours" : "window_start_hour",
           "window queries need both window_start_hour and window_hours");
  }
  if (has_start) {
    r.number("window_start_hour", 0.0, 0.0, kHoursPerYear);
    r.number("window_hours", 24.0, 1e-6, kHoursPerYear);
  }
  // A windowless query carries no window fields in its canonical form, so
  // it shares a cache entry with any other spelling of "whole year".
}

}  // namespace

std::vector<std::string> query_families() {
  return {"embodied", "lifetime", "breakeven", "sched", "trace", "fleetsim"};
}

std::vector<std::string> part_slugs() {
  std::vector<std::string> out;
  for (const auto& [slug, id] : slug_table()) out.push_back(slug);
  return out;
}

embodied::PartId part_from_slug(const std::string& slug) {
  for (const auto& [s, id] : slug_table()) {
    if (slug == s) return id;
  }
  throw Error("unknown catalog part slug '" + slug + "'");
}

json::Value Query::params() const {
  json::Reader reader;
  const json::Reader::Ref root = reader.parse(canonical);
  return reader.materialize(reader.find(root, "params"));
}

Query parse_query(const json::Reader& reader, json::Reader::Ref doc) {
  using Ref = json::Reader::Ref;
  constexpr Ref kNone = json::Reader::kNone;

  if (!reader.is_object(doc)) throw Error("request must be a JSON object");
  for (Ref f = reader.first_child(doc); f != kNone; f = reader.next(f)) {
    const std::string_view k = reader.key(f);
    if (k != "op" && k != "params" && k != "id") {
      throw Error("request has unknown top-level field '" + std::string(k) +
                  "'");
    }
  }
  const Ref op_field = reader.find(doc, "op");
  if (op_field == kNone || !reader.is_string(op_field)) {
    throw Error("request needs a string 'op' field");
  }
  Query q;
  q.op = reader.as_string(op_field);

  if (const Ref id = reader.find(doc, "id"); id != kNone) {
    if (!reader.is_string(id)) throw Error("request 'id' must be a string");
    q.id = reader.as_string(id);
  }

  const Ref params = reader.find(doc, "params");
  if (params != kNone && !reader.is_object(params)) {
    throw Error("request 'params' must be an object");
  }

  // Family indices match query_families() order.
  ParamReader r(reader, params, q.op);
  if (q.op == "embodied") { q.family = 0; normalize_embodied(r); }
  else if (q.op == "lifetime") { q.family = 1; normalize_lifetime(r); }
  else if (q.op == "breakeven") { q.family = 2; normalize_breakeven(r); }
  else if (q.op == "sched") { q.family = 3; normalize_sched(r); }
  else if (q.op == "trace") { q.family = 4; normalize_trace(r); }
  else if (q.op == "fleetsim") { q.family = 5; normalize_fleetsim(r); }
  else {
    std::string known;
    for (const auto& f : query_families()) {
      known += (known.empty() ? "" : ", ") + f;
    }
    throw Error("unknown op '" + q.op + "' (known: " + known + ")");
  }
  r.finish();

  // The canonical text is assembled directly: "op" sorts before "params",
  // and the params fragments are already dump-identical, so these are the
  // exact bytes Value::dump(sort_keys=true) of the normalized document
  // produced before the zero-copy rework (pinned by the golden tests).
  q.canonical.reserve(32 + q.op.size());
  q.canonical += "{\"op\":";
  json::quote_to(q.canonical, q.op);
  q.canonical += ",\"params\":";
  r.canonical_params_to(q.canonical);
  q.canonical.push_back('}');
  q.key = json::fnv1a64(q.canonical);
  return q;
}

Query parse_query_line(std::string_view line) {
  json::Reader reader;
  return parse_query(reader, reader.parse(line));
}

}  // namespace hpcarbon::serve
