#include "workloads.h"

#include <stdexcept>

namespace perfbench {

std::vector<std::string> workload_names() {
  return {"query-hot", "query-churn", "fleet-policies"};
}

bool is_query_workload(const std::string& name) {
  return name == "query-hot" || name == "query-churn";
}

QueryConfig query_config(const std::string& name) {
  QueryConfig c;
  c.name = name;
  if (name == "query-hot") {
    // Every question fits the default 8 MiB cache many times over and is
    // warmed in set-up: all hits, so the time is framing, parse, lookup
    // and write.
    c.hot = true;
    c.zipf_s = 1.1;
    c.stats_share = 0.01;
    c.cache_bytes = 8u << 20;
    c.cache_shards = 8;
    c.workers = 1;
    c.light_rps = 20000;
    c.heavy_rps = 40000;
    c.max_rps = 400000;
    c.replay_requests = 50000;
  } else if (name == "query-churn") {
    // 40k questions under Zipf(1.1) against a 256 KiB cache:
    // hits, misses, inserts and evictions all happen, and evaluation
    // dominates.
    c.hot = false;
    c.universe = 40000;
    c.zipf_s = 1.1;
    c.stats_share = 0.0;
    c.cache_bytes = 256u << 10;
    c.cache_shards = 8;
    c.warmup_requests = 2000;
    c.workers = 2;
    c.light_rps = 800;
    c.heavy_rps = 1600;
    c.max_rps = 40000;
    c.replay_requests = 6000;
  } else {
    throw std::invalid_argument("not a query workload: " + name);
  }
  return c;
}

FleetConfig fleet_config() {
  FleetConfig c;
  c.name = "fleet-policies";
  c.shape = FleetShape{};
  c.light_policies = {"fcfs-local", "greedy-lowest-ci"};
  c.heavy_policies = {"threshold-delay", "forecast-net-benefit"};
  return c;
}

std::vector<std::pair<std::string, std::string>> end_to_end_metrics() {
  return {{"light_p50_us", "us"}, {"heavy_p50_us", "us"},
          {"ok_share", "ratio"},   {"setup_s", "s"},
          {"peak_rss_mb", "MB"}};
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"client.lag_p99_us", "us"},
      {"client.light_p99_us", "us"},
      {"client.heavy_p99_us", "us"},
      {"client.goodput_per_s", "1/s"},
      {"trace.overhead_pct", "pct"},
      {"net.frame_ns_per_line", "ns"},
      {"net.outside_engine_p50_us", "us"},
      {"net.queue_depth_max", "count"},
      {"net.shed", "count"},
      {"serve.parse_p50_us", "us"},
      {"serve.parse_p99_us", "us"},
      {"serve.cache.get_p50_us", "us"},
      {"serve.cache.put_p50_us", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.evictions", "count"},
      {"serve.trace_store.hit_ratio", "ratio"},
      {"core.json.dump_p50_us", "us"},
  };
  for (const char* f : kFamilies) {
    const std::string p = std::string("serve.eval.") + f;
    m.push_back({p + ".p50_us", "us"});
    m.push_back({p + ".count", "count"});
    m.push_back({p + ".share", "ratio"});
  }
  m.push_back({"serve.engine.handle_p50_us", "us"});
  m.push_back({"serve.engine.handle_p99_us", "us"});
  m.push_back({"serve.engine.layers_p50_us", "us"});
  m.push_back({"serve.engine.unattributed_p50_us", "us"});
  m.push_back({"fleetsim.gen_s", "s"});
  m.push_back({"fleetsim.jobs_per_s", "1/s"});
  const FleetConfig fc = fleet_config();
  std::vector<std::string> policies = fc.light_policies;
  policies.insert(policies.end(), fc.heavy_policies.begin(),
                  fc.heavy_policies.end());
  for (const auto& p : policies) {
    m.push_back({"fleetsim." + p + ".run_s", "s"});
    m.push_back({"fleetsim." + p + ".engine_self_s", "s"});
    m.push_back({"fleetsim." + p + ".queue_len_mean", "count"});
    m.push_back({"fleetsim." + p + ".queue_len_max", "count"});
    m.push_back({"sched.policy." + p + ".select_calls", "count"});
    m.push_back({"sched.policy." + p + ".select_s", "s"});
    m.push_back({"sched.policy." + p + ".planned_start_s", "s"});
    m.push_back({"sched.policy." + p + ".dispatch_ratio", "ratio"});
  }
  return m;
}

}  // namespace perfbench
