#include "serve/request.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/error.h"
#include "core/time.h"
#include "grid/presets.h"
#include "sched/policy.h"

namespace hpcarbon::serve {

namespace {

/// Largest integer parameter the canonical form can carry exactly: the
/// canonical text stores numbers as doubles, so anything above 2^53
/// would canonicalize lossily.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// One spelling an enum-like field accepts, and what it resolves to.
template <class T>
struct Named {
  std::string_view name;
  T value;
};

constexpr Named<embodied::PartId> kParts[] = {
    {"mi250x", embodied::PartId::kMi250x},
    {"a100-pcie-40", embodied::PartId::kA100Pcie40},
    {"v100-sxm2-32", embodied::PartId::kV100Sxm2_32},
    {"epyc-7763", embodied::PartId::kEpyc7763},
    {"epyc-7742", embodied::PartId::kEpyc7742},
    {"xeon-gold-6240r", embodied::PartId::kXeonGold6240R},
    {"dram-64gb-ddr4", embodied::PartId::kDram64GbDdr4},
    {"ssd-nytro-3530", embodied::PartId::kSsdNytro3530_3_2Tb},
    {"hdd-exos-x16", embodied::PartId::kHddExosX16_16Tb},
    {"p100-pcie-16", embodied::PartId::kP100Pcie16},
    {"a100-sxm4-40", embodied::PartId::kA100Sxm4_40},
    {"xeon-e5-2680", embodied::PartId::kXeonE5_2680},
    {"epyc-7542", embodied::PartId::kEpyc7542},
};

constexpr Named<NodeFactory> kNodes[] = {
    {"p100", &hw::p100_node}, {"v100", &hw::v100_node},
    {"a100", &hw::a100_node}};

constexpr Named<workload::Suite> kSuites[] = {
    {"nlp", workload::Suite::kNlp},
    {"vision", workload::Suite::kVision},
    {"candle", workload::Suite::kCandle},
};

constexpr Named<fleetsim::ArrivalProcess> kProcesses[] = {
    {"poisson", fleetsim::ArrivalProcess::kPoisson},
    {"diurnal", fleetsim::ArrivalProcess::kDiurnal},
    {"bursty", fleetsim::ArrivalProcess::kBursty},
};

/// "a, b, c": the known names an error message lists.
template <class Range, class Proj = std::identity>
std::string joined(const Range& items, Proj name = {}) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += std::invoke(name, item);
  }
  return out;
}

/// Strict, consuming view over a request's params object (a json::Reader
/// ref). Every getter validates its field, records it as consumed, and
/// appends "key":value (default filled, name resolved) to the canonical
/// text; called in ascending key order, they write the sorted-key dump of
/// the normalized params. finish() rejects any field no getter claimed.
class ParamReader {
 public:
  using Ref = json::Reader::Ref;
  static constexpr Ref kNone = json::Reader::kNone;

  /// Members are appended to `canonical`, which ends in the object's '{'.
  ParamReader(const json::Reader& reader, Ref params, std::string_view op,
              std::string& canonical)
      : reader_(reader), params_(params), op_(op), out_(canonical) {}

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
    emit_key(key);
    json::dump_number_to(out_, v);
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
    emit_key(key);
    json::dump_number_to(out_, static_cast<double>(n));
    return n;
  }

  /// A string field, read raw: the caller checks or resolves it and emits
  /// its canonical spelling. A null `def` makes the field required.
  std::string_view string(const char* key, const char* def) {
    const Ref f = claim(key);
    if (f == kNone) {
      if (def == nullptr) fail(key, "is required");
      return def;
    }
    if (!reader_.is_string(f)) fail(key, "must be a string");
    return reader_.as_string(f);
  }

  /// A name from `table`, resolved to its value and emitted. A null `def`
  /// makes the field required. An unknown name fails as "must be one of
  /// ...", or, given a noun, as "names no <noun> (known: ...)".
  template <class T, std::size_t N>
  T choice(const char* key, const char* def, const Named<T> (&table)[N],
           const char* noun = nullptr) {
    const std::string_view name = string(key, def);
    for (const Named<T>& entry : table) {
      if (entry.name == name) {
        emit_string(key, name);
        return entry.value;
      }
    }
    const std::string known = joined(table, &Named<T>::name);
    if (noun == nullptr) fail(key, "must be one of " + known);
    fail(key, std::string("names no ") + noun + " (known: " + known + ")");
  }

  /// Optional string with no default: an absent field stays absent from
  /// the canonical text (e.g. trace_csv paths).
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
    emit_key(key);
    out_.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out_.push_back(',');
      json::quote_to(out_, v[i]);
    }
    out_.push_back(']');
    return v;
  }

  void emit_string(const char* key, std::string_view v) {
    emit_key(key);
    json::quote_to(out_, v);
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

 private:
  Ref claim(const char* key) {
    consumed_.push_back(key);
    return params_ == kNone ? kNone : reader_.find(params_, key);
  }

  void emit_key(const char* key) {
    if (out_.back() != '{') out_.push_back(',');
    json::quote_to(out_, key);
    out_.push_back(':');
  }

  const json::Reader& reader_;
  Ref params_;
  std::string_view op_;
  std::string& out_;
  /// Getter keys are string literals with static storage, so views are
  /// safe to hold.
  std::vector<std::string_view> consumed_;
};

/// The seven Table 3 codes, built once.
const std::vector<std::string>& region_codes() {
  static const std::vector<std::string> codes =
      grid::codes_of(grid::all_regions());
  return codes;
}

void check_region(ParamReader& r, const char* key, std::string_view code) {
  const auto& codes = region_codes();
  if (std::find(codes.begin(), codes.end(), code) == codes.end()) {
    r.fail(key, "names no Table 3 region (known: " + joined(codes) + ")");
  }
}

std::string region(ParamReader& r, const char* key, const char* def) {
  const std::string_view code = r.string(key, def);
  check_region(r, key, code);
  r.emit_string(key, code);
  return std::string(code);
}

std::vector<std::string> regions(ParamReader& r) {
  std::vector<std::string> codes = r.string_array(
      "regions", {"ERCOT", "ESO", "CISO"}, 1, region_codes().size());
  for (auto it = codes.begin(); it != codes.end(); ++it) {
    check_region(r, "regions", *it);
    if (std::find(codes.begin(), it, *it) != it) {
      r.fail("regions", "lists region '" + *it + "' twice");
    }
  }
  return codes;
}

/// A registered policy, emitted as its canonical name so that
/// {"policy":"greedy"} and {"policy":"greedy-lowest-ci"} share a key.
std::string policy(ParamReader& r) {
  const sched::PolicyDescriptor* desc =
      sched::find_policy(r.string("policy", nullptr));
  if (desc == nullptr) {
    r.fail("policy", "names no registered policy (known: " +
                         joined(sched::registered_policies(),
                                &sched::PolicyDescriptor::short_name) +
                         ")");
  }
  r.emit_string("policy", desc->name);
  return desc->name;
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

// Each normalizer reads its family's fields in ascending key order: that
// order writes the canonical text, and it decides which fault a request
// with several is answered with.

void normalize(ParamReader& r, EmbodiedQuery& q) {
  q.part = r.choice("part", nullptr, kParts, "catalog part");
}

void normalize(ParamReader& r, LifetimeQuery& q) {
  q.gpu_usage = r.number("gpu_usage", 0.40, 0.01, 1.0);
  q.grid_band = r.number("grid_band", 0.10, 0.0, 0.99);
  q.node = r.choice("node", nullptr, kNodes);
  q.pue = r.number("pue", 1.2, 1.0, 3.0);
  q.region = region(r, "region", "CISO");
  // Monte-Carlo draws ride mc::substream(seed, i), so the answer is
  // bit-identical whatever pool executes it.
  q.samples = r.integer("samples", 0, 0, 1000000);
  q.seed = r.integer("seed", 42, 0, static_cast<long>(kMaxExactInt));
  q.start_month = r.integer("start_month", 5, 0, 11);
  q.suite = r.choice("suite", "nlp", kSuites);
  q.trace_csv = r.optional_str("trace_csv");
  q.years = r.number("years", 5.0, 0.1, 100.0);
}

void normalize(ParamReader& r, BreakevenQuery& q) {
  q.annual_decline = r.number("annual_decline", 0.03, 0.0, 0.999);
  q.gpu_usage = r.number("gpu_usage", 0.40, 0.01, 1.0);
  q.horizon_years = r.number("horizon_years", 15.0, 0.1, 200.0);
  q.intensity_g_per_kwh =
      r.number("intensity_g_per_kwh", 200.0, 1.0, 10000.0);
  q.new_node = r.choice("new_node", "a100", kNodes);
  q.old_node = r.choice("old_node", "v100", kNodes);
  q.pue = r.number("pue", 1.2, 1.0, 3.0);
  q.suite = r.choice("suite", "nlp", kSuites);
}

void normalize(ParamReader& r, SchedQuery& q) {
  q.capacity = r.integer("capacity", 16, 1, 4096);
  q.days = r.number("days", 28.0, 0.5, 366.0);
  q.policy = policy(r);
  q.rate = r.number("rate", 2.5, 0.01, 1000.0);
  check_expected_jobs(r, q.rate, q.days);
  q.regions = regions(r);
  q.seed = r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
  q.start_month = r.integer("start_month", 5, 0, 11);
}

void normalize(ParamReader& r, TraceQuery& q) {
  q.region = region(r, "region", nullptr);
  q.trace_csv = r.optional_str("trace_csv");
  // A window needs both halves. Without one the canonical form carries
  // neither, so every spelling of "whole year" shares a cache entry.
  const bool has_hours = r.has("window_hours");
  const bool has_start = r.has("window_start_hour");
  if (has_hours || has_start) {
    constexpr const char* kBoth =
        "window queries need both window_start_hour and window_hours";
    if (!has_hours) r.fail("window_hours", kBoth);
    const double hours = r.number("window_hours", 24.0, 1e-6, kHoursPerYear);
    if (!has_start) r.fail("window_start_hour", kBoth);
    q.window = TraceQuery::Window{
        r.number("window_start_hour", 0.0, 0.0, kHoursPerYear), hours};
  }
}

void normalize(ParamReader& r, FleetsimQuery& q) {
  q.capacity = r.integer("capacity", 16, 1, 4096);
  q.days = r.number("days", 28.0, 0.5, 366.0);
  q.policy = policy(r);
  q.process = r.choice("process", "poisson", kProcesses);
  q.rate = r.number("rate", 4.0, 0.01, 10000.0);
  check_expected_jobs(r, q.rate, q.days);
  q.regions = regions(r);
  // samples > 0 adds savings quantiles over workload seeds (bounded: each
  // sample is two full fleet runs).
  q.samples = r.integer("samples", 0, 0, 64);
  q.seed = r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
  q.start_month = r.integer("start_month", 5, 0, 11);
}

}  // namespace

std::vector<std::string> query_families() {
  return {"embodied", "lifetime", "breakeven", "sched", "trace", "fleetsim"};
}

std::vector<std::string> part_slugs() {
  std::vector<std::string> out;
  for (const auto& part : kParts) out.emplace_back(part.name);
  return out;
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

  // "op" sorts before "params", and the reader appends the params members
  // in sorted-key form, so these are the bytes Value::dump(sort_keys) of
  // the normalized document gives (pinned by the golden tests).
  q.canonical.reserve(256);
  q.canonical += "{\"op\":";
  json::quote_to(q.canonical, q.op);
  q.canonical += ",\"params\":{";
  ParamReader r(reader, params, q.op, q.canonical);
  QueryParams& p = q.params;
  if (q.op == "embodied") normalize(r, p.emplace<EmbodiedQuery>());
  else if (q.op == "lifetime") normalize(r, p.emplace<LifetimeQuery>());
  else if (q.op == "breakeven") normalize(r, p.emplace<BreakevenQuery>());
  else if (q.op == "sched") normalize(r, p.emplace<SchedQuery>());
  else if (q.op == "trace") normalize(r, p.emplace<TraceQuery>());
  else if (q.op == "fleetsim") normalize(r, p.emplace<FleetsimQuery>());
  else {
    throw Error("unknown op '" + q.op + "' (known: " +
                joined(query_families()) + ")");
  }
  r.finish();
  q.canonical += "}}";
  q.family = static_cast<int>(q.params.index());
  q.key = json::fnv1a64(q.canonical);
  return q;
}

Query parse_query_line(std::string_view line) {
  json::Reader reader;
  return parse_query(reader, reader.parse(line));
}

}  // namespace hpcarbon::serve
