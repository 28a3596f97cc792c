// The benchmark's three workloads and their fixed configurations.
//
//   query-hot       socket queries, every one a cache hit
//   query-churn     socket queries, cache far smaller than the working set
//   fleet-policies  eight diurnal fleets replayed under four policies
//
// Every constant that defines a workload lives here and is printed with
// each result (config_json), so two results can only be compared when
// they ran the same configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gen.h"
#include "stats.h"

namespace perfbench {

struct QueryConfig {
  std::string name;
  bool hot = true;
  std::size_t universe = 0;  // churn universe size (hot: fixed universe)
  double zipf_s = 1.1;
  double stats_share = 0.0;
  std::size_t cache_bytes = 8u << 20;
  std::size_t cache_shards = 8;
  std::size_t workers = 2;  // server workers; + IO thread + client = 4
  std::size_t conns = 4;
  std::size_t warmup_requests = 0;  // churn: stream prefix sent in set-up
  double light_rps = 0;
  double heavy_rps = 0;
  std::size_t window = 8;   // goodput: requests outstanding per connection
  double max_rps = 0;       // goodput: the closed loop's stream is sized
                            // for this rate
  std::size_t replay_requests = 0;  // traced in-process replay length
};

struct FleetConfig {
  std::string name;
  FleetShape shape;
  std::vector<std::string> light_policies;
  std::vector<std::string> heavy_policies;
};

/// Workload names. query-hot runs but is not listed in BENCHMARK.json:
/// on a shared 4-vCPU VM its p99s and goodput did not repeat from run to
/// run (perfbench/README.md).
std::vector<std::string> workload_names();
bool is_query_workload(const std::string& name);
QueryConfig query_config(const std::string& name);
FleetConfig fleet_config();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where spans are written; empty = not written
};

/// What one run reports: the result line plus a free-form
/// configuration record.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  std::string config_json;
  std::vector<std::string> problems;  // correctness failures, human-readable
};

Report run_query(const QueryConfig& cfg, const RunOptions& opt);
Report run_fleet(const FleetConfig& cfg, const RunOptions& opt);

/// Names and units of every metric each mode reports (every run reports
/// every metric of its mode).
std::vector<std::pair<std::string, std::string>> end_to_end_metrics();
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

/// The seed whose fleet ScheduleMetrics digests are pinned.
inline constexpr std::uint64_t kPinnedSeed = 1;

}  // namespace perfbench
