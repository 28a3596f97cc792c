// Typed carbon queries: the request half of the serve layer.
//
// A request is one JSON document: {"op": <family>, "params": {...},
// "id": <optional echo tag>}. Six scenario families cover the questions
// the modeling stack answers (each maps onto the same library calls the
// `run`/`sweep`/`trace`/`fleetsim` CLI paths make, so service responses
// agree with the offline tools):
//
//   embodied   — Eq. 2-5 breakdown for one catalog part
//   lifetime   — node lifetime footprint priced on a region CI trace,
//                optionally with Monte-Carlo quantiles (mc::substream)
//   breakeven  — upgrade break-even under a decarbonizing grid
//   sched      — scheduler-policy carbon savings vs the FCFS baseline
//   trace      — CI-trace statistics, plus O(1) window-mean queries
//   fleetsim   — the same policy-vs-FCFS question through the integer-tick
//                fleet engine (src/fleetsim): seeded arrival processes,
//                optional savings quantiles over workload seeds
//
// parse_query validates strictly (unknown fields, bad types, out-of-range
// values, and unknown enum names are errors, not defaults) into one plain
// struct per family: defaults filled, names resolved (a part to its
// PartId, a policy short name to its canonical name), so evaluation never
// looks a parameter up by string. Each family reads its fields in
// ascending key order and appends "key":value as it accepts each one, so
// the same pass writes the *canonical key*: the normalized document with
// sorted keys, hashed with FNV-1a/64. Semantically identical requests
// (reordered fields, explicit defaults, short vs canonical policy names)
// collide on purpose, which is what makes the result cache
// (serve/cache.h) effective. Key order is also the error order: a request
// with several faulty fields is answered with the first in key order, and
// unknown parameters are reported only after every known field passed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/json.h"
#include "embodied/catalog.h"
#include "fleetsim/workload.h"
#include "hw/node.h"
#include "workload/suite.h"

namespace hpcarbon::serve {

/// One of the Table 5 node presets (hw::p100_node and its siblings).
using NodeFactory = hw::NodeConfig (*)();

struct EmbodiedQuery {
  embodied::PartId part{};
};

struct LifetimeQuery {
  NodeFactory node = nullptr;
  workload::Suite suite{};
  double years = 0, gpu_usage = 0, pue = 0;
  std::string region;
  /// Imported trace file; empty prices on the region's preset trace.
  std::string trace_csv;
  int start_month = 0;
  /// samples > 0 adds Monte-Carlo quantiles, with grid_band as the CI band.
  int samples = 0;
  std::uint64_t seed = 0;
  double grid_band = 0;
};

struct BreakevenQuery {
  NodeFactory old_node = nullptr, new_node = nullptr;
  workload::Suite suite{};
  double intensity_g_per_kwh = 0, annual_decline = 0, horizon_years = 0;
  double gpu_usage = 0, pue = 0;
};

/// The policy-vs-FCFS trio: regions[0] is the home site, and the two
/// cleanest other regions are its remote options. The engine and the
/// scoring are fleetsim/ablation.h's, the one trio implementation that
/// `hpcarbon run`, `fleetsim` and `sweep` share.
struct SchedQuery {
  std::vector<std::string> regions;
  std::string policy;  // canonical registry name
  double days = 0, rate = 0;
  int capacity = 0, start_month = 0;
  std::uint64_t seed = 0;
};

/// sched's question through a seeded arrival process; samples > 0 adds
/// savings quantiles over workload seeds.
struct FleetsimQuery : SchedQuery {
  fleetsim::ArrivalProcess process{};
  int samples = 0;
};

struct TraceQuery {
  std::string region;
  /// Imported trace file; empty reads the region's preset trace.
  std::string trace_csv;
  struct Window { double start_hour = 0, hours = 0; };
  /// The window-mean query; absent asks about the whole year only.
  std::optional<Window> window;
};

/// Alternatives in query_families() order, so index() is the family.
using QueryParams = std::variant<EmbodiedQuery, LifetimeQuery, BreakevenQuery,
                                 SchedQuery, TraceQuery, FleetsimQuery>;

struct Query {
  /// Family name ("embodied", "lifetime", "breakeven", "sched", "trace",
  /// "fleetsim").
  std::string op;
  /// Client echo tag (response correlation); excluded from the canonical
  /// key — two requests differing only in id are the same question.
  std::string id;
  /// {"op":...,"params":{...}} with sorted keys: the cache identity.
  std::string canonical;
  /// FNV-1a/64 of `canonical`.
  std::uint64_t key = 0;
  /// params.index(), the index of `op` in query_families(): the engine's
  /// per-family instrument slot without a string compare on the hot path.
  int family = -1;
  /// The validated parameters, defaults filled and names resolved.
  QueryParams params;
};

/// The six family names, in documentation order.
std::vector<std::string> query_families();

/// Catalog part slugs accepted by the embodied family, in Table 1/5 order
/// (e.g. "a100-pcie-40"). One per embodied::PartId.
std::vector<std::string> part_slugs();

/// Parse + validate one request document (a json::Reader ref — the
/// zero-copy form the serve hot path uses). Throws hpcarbon::Error with a
/// message naming the op and parameter on any violation.
Query parse_query(const json::Reader& reader, json::Reader::Ref doc);
/// json::Reader::parse + parse_query over a private reader.
Query parse_query_line(std::string_view line);

}  // namespace hpcarbon::serve
