#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario_runner.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "core/time.h"
#include "embodied/catalog.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "grid/analysis.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "hw/node.h"
#include "lifecycle/footprint.h"
#include "lifecycle/scenario.h"
#include "lifecycle/upgrade.h"
#include "mc/engine.h"
#include "obs/metrics.h"
#include "op/pue.h"
#include "serve/engine.h"
#include "serve/limits.h"
#include "serve/request.h"
#include "sched/workload_gen.h"
#include "workload/suite.h"

namespace hpcarbon::serve {
namespace {

Query parse(const std::string& line) { return parse_query_line(line); }

TEST(Request, FamiliesAndPartSlugs) {
  const auto families = query_families();
  ASSERT_EQ(families.size(), 6u);
  EXPECT_EQ(families[0], "embodied");
  EXPECT_EQ(families[4], "trace");
  EXPECT_EQ(families[5], "fleetsim");
  // One slug per catalog part, each resolving back to a PartId.
  const auto slugs = part_slugs();
  EXPECT_EQ(slugs.size(), 13u);
  auto part_of = [](const std::string& slug) {
    const Query q =
        parse(R"({"op":"embodied","params":{"part":")" + slug + R"("}})");
    return std::get<EmbodiedQuery>(q.params).part;
  };
  for (const auto& s : slugs) EXPECT_NO_THROW(part_of(s));
  EXPECT_EQ(part_of("v100-sxm2-32"), embodied::PartId::kV100Sxm2_32);
  EXPECT_THROW(part_of("rtx-5090"), Error);
}

TEST(Request, CanonicalKeyIsFieldOrderInsensitive) {
  const Query a = parse(
      R"({"id":"x","op":"sched","params":{"policy":"greedy","days":7,"rate":1}})");
  const Query b = parse(
      R"({"params":{"rate":1,"policy":"greedy","days":7},"op":"sched","id":"y"})");
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.id, b.id);  // ids echo but do not join the key

  const Query c = parse(
      R"({"op":"sched","params":{"policy":"greedy","days":8,"rate":1}})");
  EXPECT_NE(a.key, c.key);
}

TEST(Request, ExplicitDefaultsCollideWithOmittedOnes) {
  const Query implicit = parse(R"({"op":"lifetime","params":{"node":"v100"}})");
  const Query explicit_defaults = parse(
      R"({"op":"lifetime","params":{"node":"v100","suite":"nlp","years":5,)"
      R"("gpu_usage":0.4,"region":"CISO","start_month":5,"pue":1.2,)"
      R"("samples":0,"seed":42,"grid_band":0.1}})");
  EXPECT_EQ(implicit.canonical, explicit_defaults.canonical);
  EXPECT_EQ(implicit.key, explicit_defaults.key);
}

TEST(Request, PolicyShortNamesCanonicalize) {
  const Query short_name =
      parse(R"({"op":"sched","params":{"policy":"greedy"}})");
  const Query canonical =
      parse(R"({"op":"sched","params":{"policy":"greedy-lowest-ci"}})");
  EXPECT_EQ(short_name.key, canonical.key);
  EXPECT_NE(short_name.canonical.find("greedy-lowest-ci"), std::string::npos);
}

TEST(Request, StrictValidation) {
  // Unknown op / fields / params.
  EXPECT_THROW(parse(R"({"op":"astrology"})"), Error);
  EXPECT_THROW(parse(R"({"op":"embodied","surprise":1})"), Error);
  EXPECT_THROW(parse(R"({"op":"embodied","params":{"part":"mi250x","x":1}})"),
               Error);
  // Missing / mistyped requireds.
  EXPECT_THROW(parse(R"({"op":"embodied"})"), Error);
  EXPECT_THROW(parse(R"({"op":"embodied","params":{"part":7}})"), Error);
  EXPECT_THROW(parse(R"({"op":"lifetime"})"), Error);
  EXPECT_THROW(parse(R"({"op":"sched","params":{}})"), Error);  // no policy
  EXPECT_THROW(parse(R"({"op":"trace"})"), Error);  // no region
  // Bad enum values.
  EXPECT_THROW(parse(R"({"op":"embodied","params":{"part":"gtx-480"}})"),
               Error);
  EXPECT_THROW(parse(R"({"op":"lifetime","params":{"node":"h100"}})"), Error);
  EXPECT_THROW(
      parse(R"({"op":"lifetime","params":{"node":"v100","suite":"hpl"}})"),
      Error);
  EXPECT_THROW(
      parse(R"({"op":"trace","params":{"region":"ATLANTIS"}})"), Error);
  EXPECT_THROW(
      parse(R"({"op":"sched","params":{"policy":"warp-drive"}})"), Error);
  // Ranges and integrality.
  EXPECT_THROW(
      parse(R"({"op":"lifetime","params":{"node":"v100","years":-1}})"),
      Error);
  EXPECT_THROW(
      parse(R"({"op":"lifetime","params":{"node":"v100","samples":2.5}})"),
      Error);
  EXPECT_THROW(
      parse(
          R"({"op":"sched","params":{"policy":"greedy","regions":["ESO","ESO"]}})"),
      Error);
  // Window halves must travel together.
  EXPECT_THROW(
      parse(R"({"op":"trace","params":{"region":"ESO","window_hours":24}})"),
      Error);
  // Top-level shape.
  EXPECT_THROW(parse(R"([1,2,3])"), Error);
  EXPECT_THROW(parse(R"({"op":"embodied","id":7,"params":{"part":"mi250x"}})"),
               Error);
}

TEST(Request, SeveralFaultsNameTheFirstFieldInKeyOrder) {
  // Fields validate in ascending key order, so a request with several
  // faulty fields is answered with the first of them in that order.
  // Unknown parameters are reported only after every known field passed,
  // so "aaa" loses to the bad "years" even though it sorts first.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op":"lifetime","params":{"node":"v100","years":-1,"gpu_usage":5}})",
       "gpu_usage"},
      {R"({"op":"sched","params":{"policy":"warp","regions":["ATLANTIS"]}})",
       "policy"},
      {R"({"op":"sched","params":{"policy":"greedy","regions":["ATLANTIS"],)"
       R"("capacity":0}})",
       "capacity"},
      {R"({"op":"breakeven","params":{"old_node":"x","new_node":"y"}})",
       "new_node"},
      {R"({"op":"lifetime","params":{"aaa":1,"node":"v100","years":-1}})",
       "years"},
  };
  for (const auto& [line, field] : cases) {
    std::string error;
    try {
      parse(line);
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("parameter '" + std::string(field) + "'"),
              std::string::npos)
        << line << ": " << error;
  }
}

// --- Service answers vs direct library calls --------------------------------

TEST(Evaluate, EmbodiedMatchesCatalog) {
  TraceStore store;
  const Query q = parse(R"({"op":"embodied","params":{"part":"mi250x"}})");
  const json::Value r = evaluate(q, store);
  const auto expected = embodied::embodied_of(embodied::PartId::kMi250x);
  EXPECT_DOUBLE_EQ(r.find("manufacturing_g")->as_number(),
                   expected.manufacturing.to_grams());
  EXPECT_DOUBLE_EQ(r.find("packaging_g")->as_number(),
                   expected.packaging.to_grams());
  EXPECT_DOUBLE_EQ(r.find("total_g")->as_number(),
                   expected.total().to_grams());
  EXPECT_EQ(r.find("display_name")->as_string(),
            embodied::display_name(embodied::PartId::kMi250x));
}

TEST(Evaluate, LifetimeMatchesFootprint) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"lifetime","params":{"node":"a100","suite":"vision",)"
      R"("years":4,"region":"ESO"}})");
  const json::Value r = evaluate(q, store);
  const auto stored = store.preset("ESO");
  const auto expected = lifecycle::node_lifetime_footprint(
      hw::a100_node(), workload::Suite::kVision, 0.40, 4.0, stored->trace,
      HourOfYear(month_start_hour(5)), op::PueModel(1.2));
  EXPECT_DOUBLE_EQ(r.find("embodied_g")->as_number(),
                   expected.embodied.to_grams());
  EXPECT_DOUBLE_EQ(r.find("operational_g")->as_number(),
                   expected.operational.to_grams());
  EXPECT_DOUBLE_EQ(r.find("total_g")->as_number(),
                   expected.total().to_grams());
  EXPECT_EQ(r.find("total_p50_g"), nullptr);  // no samples requested
}

TEST(Evaluate, LifetimeQuantilesAreDeterministic) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"lifetime","params":{"node":"v100","samples":128,"seed":7}})");
  const json::Value a = evaluate(q, store);
  const json::Value b = evaluate(q, store);
  EXPECT_EQ(a.dump(true), b.dump(true));
  EXPECT_LE(a.find("total_p05_g")->as_number(),
            a.find("total_p50_g")->as_number());
  EXPECT_LE(a.find("total_p50_g")->as_number(),
            a.find("total_p95_g")->as_number());
  // The point estimate rides along unchanged.
  const Query point = parse(R"({"op":"lifetime","params":{"node":"v100"}})");
  EXPECT_DOUBLE_EQ(evaluate(point, store).find("total_g")->as_number(),
                   a.find("total_g")->as_number());
}

TEST(Evaluate, BreakevenMatchesScenarioLayer) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"breakeven","params":{"annual_decline":0.03,"horizon_years":15}})");
  const json::Value r = evaluate(q, store);

  lifecycle::UpgradeScenario s;
  s.old_node = hw::v100_node();
  s.new_node = hw::a100_node();
  s.suite = workload::Suite::kNlp;
  s.intensity = CarbonIntensity::grams_per_kwh(200);
  s.usage = lifecycle::UsageProfile::medium();
  s.pue = op::PueModel(1.2);
  const lifecycle::GridTrajectory traj(s.intensity, 0.03);
  const auto be = lifecycle::breakeven_years(s, traj, 15.0);
  ASSERT_TRUE(be.has_value());
  EXPECT_DOUBLE_EQ(r.find("breakeven_years")->as_number(), *be);
  EXPECT_TRUE(r.find("pays_back")->as_bool());
  EXPECT_DOUBLE_EQ(r.find("savings_pct_at_horizon")->as_number(),
                   lifecycle::savings_percent(s, traj, 15.0));
  EXPECT_DOUBLE_EQ(r.find("asymptotic_savings_pct")->as_number(),
                   lifecycle::asymptotic_savings_percent(s));
}

// Acceptance: the sched family reproduces `hpcarbon run`'s numbers for the
// same scenario (same site trio, workload seed, and baseline), over region
// lists from tests/data/trio_requests.jsonl whose home is the dirtiest,
// in between, and the cleanest of the list.
TEST(Evaluate, SchedMatchesRunScenarios) {
  struct Case {
    std::vector<std::string> regions;
    std::string policy;
  };
  const std::vector<Case> cases = {
      {{"TK", "ESO"}, "greedy-lowest-ci"},
      {{"PJM", "TK", "MISO", "ERCOT", "KN"}, "net-benefit"},
      {{"ESO", "KN", "TK", "CISO", "PJM", "MISO", "ERCOT"},
       "greedy-lowest-ci"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.regions.front() + " home of " +
                 std::to_string(c.regions.size()));
    std::string regions_json;
    for (const auto& code : c.regions) {
      regions_json += (regions_json.empty() ? "\"" : ",\"") + code + "\"";
    }
    TraceStore store;
    const Query q = parse(R"({"op":"sched","params":{"regions":[)" +
                          regions_json + R"(],"policy":")" + c.policy +
                          R"(","days":2,"rate":3}})");
    const json::Value r = evaluate(q, store);

    cli::ScenarioOptions opts;
    opts.regions = c.regions;
    opts.policies = {c.policy};
    opts.horizon_days = 2;
    opts.arrival_rate_per_hour = 3.0;
    const cli::ScenarioReport report = cli::run_scenarios(opts);
    // Rows are region-major with the fcfs-local baseline first: the home
    // region's cells are rows 0 (baseline) and 1 (the policy).
    ASSERT_EQ(report.rows.size(), 2 * c.regions.size());
    ASSERT_EQ(report.rows[0].region, c.regions.front());
    ASSERT_EQ(report.rows[0].policy, "fcfs-local");
    ASSERT_EQ(report.rows[1].policy, c.policy);
    EXPECT_EQ(r.find("baseline_carbon_kg")->as_number(),
              report.rows[0].carbon_kg);
    EXPECT_EQ(r.find("carbon_kg")->as_number(), report.rows[1].carbon_kg);
    EXPECT_EQ(r.find("savings_pct")->as_number(),
              report.rows[1].savings_vs_fcfs_pct);
    EXPECT_EQ(r.find("mean_wait_hours")->as_number(),
              report.rows[1].mean_wait_hours);
    EXPECT_EQ(static_cast<int>(r.find("jobs_completed")->as_number()),
              report.rows[1].jobs_completed);
    EXPECT_EQ(static_cast<int>(r.find("remote_dispatches")->as_number()),
              report.rows[1].remote_dispatches);
  }
}

// The sched family is a FleetEngine run too: its generated jobs snap onto
// the tick grid through the FleetJobs constructor, and every field is the
// direct engine answer, bit for bit.
TEST(Evaluate, SchedMatchesFleetEngineDirectly) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"sched","params":{"regions":["ERCOT","ESO","CISO"],)"
      R"("policy":"greedy","days":7,"rate":1}})");
  const json::Value r = evaluate(q, store);

  const int capacity = 16;
  std::vector<sched::Site> sites = {
      sched::make_site("ERCOT", store.preset("ERCOT")->trace, capacity),
      sched::make_site("ESO", store.preset("ESO")->trace, capacity),
      sched::make_site("CISO", store.preset("CISO")->trace, capacity)};
  const fleetsim::FleetEngine engine(sites,
                                     HourOfYear(month_start_hour(5)));
  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * 7;
  wp.arrival_rate_per_hour = 1.0;
  const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                 sched::generated_user_names(wp.user_count));
  const auto baseline = sched::make_policy("fcfs-local");
  const auto base = engine.run(jobs, *baseline);
  const auto greedy = sched::make_policy("greedy-lowest-ci");
  const auto metrics = engine.run(jobs, *greedy);

  const double base_g = base.total_carbon.to_grams();
  const double g = metrics.total_carbon.to_grams();
  EXPECT_EQ(r.find("jobs")->as_number(), static_cast<double>(jobs.size()));
  EXPECT_EQ(r.find("baseline_carbon_kg")->as_number(),
            base.total_carbon.to_kilograms());
  EXPECT_EQ(r.find("carbon_kg")->as_number(),
            metrics.total_carbon.to_kilograms());
  EXPECT_EQ(r.find("jobs_completed")->as_number(), metrics.jobs_completed);
  EXPECT_EQ(r.find("mean_wait_hours")->as_number(), metrics.mean_wait_hours);
  EXPECT_EQ(r.find("p95_wait_hours")->as_number(), metrics.p95_wait_hours);
  EXPECT_EQ(r.find("remote_dispatches")->as_number(),
            metrics.remote_dispatches);
  EXPECT_EQ(r.find("savings_pct")->as_number(), 100.0 * (base_g - g) / base_g);
  // The sched field set is fixed: no fleetsim-only fields leak in.
  EXPECT_EQ(r.find("utilization"), nullptr);
  EXPECT_EQ(r.find("process"), nullptr);
}

// Acceptance: the fleetsim family is the FleetEngine answer — same trio
// construction as sched, same savings arithmetic, and (because the serve
// trio equals the engine-suite trio here) bit-identical metrics.
TEST(Evaluate, FleetsimMatchesFleetEngineDirectly) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"fleetsim","params":{"regions":["ERCOT","ESO","CISO"],)"
      R"("policy":"greedy","days":7,"rate":2,"samples":4}})");
  const json::Value r = evaluate(q, store);

  const int capacity = 16;
  std::vector<sched::Site> sites = {
      sched::make_site("ERCOT", store.preset("ERCOT")->trace, capacity),
      sched::make_site("ESO", store.preset("ESO")->trace, capacity),
      sched::make_site("CISO", store.preset("CISO")->trace, capacity)};
  const fleetsim::FleetEngine engine(sites,
                                     HourOfYear(month_start_hour(5)));
  fleetsim::FleetWorkloadParams wp;
  wp.horizon_hours = 24.0 * 7;
  wp.rate_per_hour = 2.0;
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(wp);
  const auto baseline = sched::make_policy("fcfs-local");
  const auto base = engine.run(jobs, *baseline);
  const auto greedy = sched::make_policy("greedy-lowest-ci");
  const auto metrics = engine.run(jobs, *greedy);

  EXPECT_EQ(r.find("jobs")->as_number(), static_cast<double>(jobs.size()));
  EXPECT_EQ(r.find("baseline_carbon_kg")->as_number(),
            base.total_carbon.to_kilograms());
  EXPECT_EQ(r.find("carbon_kg")->as_number(),
            metrics.total_carbon.to_kilograms());
  EXPECT_EQ(r.find("mean_wait_hours")->as_number(), metrics.mean_wait_hours);
  EXPECT_EQ(r.find("utilization")->as_number(), metrics.utilization);
  EXPECT_EQ(r.find("process")->as_string(), "poisson");

  // Sample i replays the workload seeded by substream(2024, i)'s first
  // draw and pairs greedy with its own fcfs-local run.
  std::vector<double> savings;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Rng rng = mc::substream(2024, i);
    fleetsim::FleetWorkloadParams sample = wp;
    sample.seed = rng.next_u64();
    const auto sample_jobs = fleetsim::generate_fleet_jobs(sample);
    const auto sample_base = sched::make_policy("fcfs-local");
    const double base_g =
        engine.run(sample_jobs, *sample_base).total_carbon.to_grams();
    const auto sample_greedy = sched::make_policy("greedy-lowest-ci");
    const double g =
        engine.run(sample_jobs, *sample_greedy).total_carbon.to_grams();
    savings.push_back(100.0 * (base_g - g) / base_g);
  }
  const mc::Distribution d(std::move(savings));
  EXPECT_EQ(r.find("savings_p50")->as_number(), d.p50());
  EXPECT_EQ(r.find("savings_p05")->as_number(), d.p05());
  EXPECT_EQ(r.find("savings_p95")->as_number(), d.p95());
}

TEST(Request, FleetsimValidatesStrictly) {
  // Short policy names canonicalize into the cache key, like sched.
  const Query short_name =
      parse(R"({"op":"fleetsim","params":{"policy":"greedy"}})");
  const Query canonical =
      parse(R"({"op":"fleetsim","params":{"policy":"greedy-lowest-ci"}})");
  EXPECT_EQ(short_name.key, canonical.key);
  EXPECT_NE(short_name.canonical.find("greedy-lowest-ci"), std::string::npos);
  // Defaults fill into the canonical form (process, samples, ...).
  EXPECT_NE(short_name.canonical.find("\"process\":\"poisson\""),
            std::string::npos);

  EXPECT_THROW(parse(R"({"op":"fleetsim","params":{}})"), Error);  // no policy
  EXPECT_THROW(
      parse(R"({"op":"fleetsim","params":{"policy":"warp-drive"}})"), Error);
  EXPECT_THROW(
      parse(
          R"({"op":"fleetsim","params":{"policy":"greedy","process":"weibull"}})"),
      Error);
  EXPECT_THROW(
      parse(
          R"({"op":"fleetsim","params":{"policy":"greedy","regions":["ESO","ESO"]}})"),
      Error);
  EXPECT_THROW(
      parse(R"({"op":"fleetsim","params":{"policy":"greedy","samples":65}})"),
      Error);
  // The cross-field job-count guard: each factor is in range, the product
  // is not. sched shares it, wording included: 1000 jobs/h over 200 days
  // is 4.8M expected jobs.
  for (const char* line :
       {R"({"op":"fleetsim","params":{"policy":"greedy","rate":1000,"days":300}})",
        R"({"op":"sched","params":{"policy":"greedy","rate":1000,"days":200}})"}) {
    std::string error;
    try {
      parse(line);
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("parameter 'rate' implies more than 4000000 "
                         "expected jobs (rate * days * 24)"),
              std::string::npos)
        << line << ": " << error;
  }
}

TEST(Evaluate, TraceStatsMatchSummaryAndPrefixSums) {
  TraceStore store;
  const Query q = parse(
      R"({"op":"trace","params":{"region":"CISO",)"
      R"("window_start_hour":1000,"window_hours":48}})");
  const json::Value r = evaluate(q, store);
  const grid::CarbonIntensityTrace& trace = store.preset("CISO")->trace;
  const grid::RegionSummary s = grid::summarize(trace);
  EXPECT_DOUBLE_EQ(r.find("median")->as_number(), s.box.median);
  EXPECT_DOUBLE_EQ(r.find("mean")->as_number(), s.box.mean);
  EXPECT_DOUBLE_EQ(r.find("cov_pct")->as_number(), s.cov_percent);
  EXPECT_DOUBLE_EQ(r.find("p25")->as_number(), s.box.q1);
  EXPECT_DOUBLE_EQ(r.find("p75")->as_number(), s.box.q3);
  EXPECT_EQ(static_cast<std::size_t>(r.find("samples")->as_number()),
            trace.size());
  EXPECT_DOUBLE_EQ(r.find("window_mean")->as_number(),
                   trace.interval_sum(1000, 48) / 48.0);
}

/// Bit-for-bit equality: EXPECT_EQ on doubles lets -0.0 pass for 0.0.
void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

// The trace family answers from the summary the store built with the
// trace, not from a summary of its own. The answer must still be
// grid::summarize's, bit for bit, on a trace built apart from the store:
// for a preset and for the 5-minute import, with and without a window.
TEST(Evaluate, TraceAnswersAreSummarizeBitForBit) {
  const std::string csv =
      std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";
  grid::ImportOptions io;
  io.tz = grid::require_region("ESO").tz;
  const std::vector<std::pair<std::string, grid::CarbonIntensityTrace>>
      sources = {
          {R"("region":"CISO")", grid::generate_traces({grid::ciso()})[0]},
          {R"("region":"ESO","trace_csv":")" + csv + R"(")",
           grid::import_trace_file(csv, "ESO", io)}};
  TraceStore store;
  for (const auto& [source, trace] : sources) {
    const grid::RegionSummary s = grid::summarize(trace);
    for (const std::string window :
         {"", R"(,"window_start_hour":1000.5,"window_hours":48)"}) {
      const std::string line =
          R"({"op":"trace","params":{)" + source + window + "}}";
      // Twice: the first lookup builds the entry, the second reads it.
      for (int pass = 0; pass < 2; ++pass) {
        const json::Value r = evaluate(parse(line), store);
        expect_bits(r.find("cov_pct")->as_number(), s.cov_percent, line);
        expect_bits(r.find("max")->as_number(), s.box.max, line);
        expect_bits(r.find("mean")->as_number(), s.box.mean, line);
        expect_bits(r.find("median")->as_number(), s.box.median, line);
        expect_bits(r.find("min")->as_number(), s.box.min, line);
        expect_bits(r.find("p25")->as_number(), s.box.q1, line);
        expect_bits(r.find("p75")->as_number(), s.box.q3, line);
        expect_bits(r.find("samples")->as_number(),
                    static_cast<double>(trace.size()), line);
        expect_bits(r.find("step_seconds")->as_number(),
                    trace.step_seconds(), line);
        if (window.empty()) {
          EXPECT_EQ(r.find("window_mean"), nullptr) << line;
        } else {
          expect_bits(r.find("window_mean")->as_number(),
                      trace.interval_sum(1000.5, 48) / 48, line);
        }
      }
    }
  }
  EXPECT_EQ(store.misses(), 2u);
}

// A sched or fleetsim miss assembles its engine from the store's prepared
// regions: each site points at its preset's one PreparedRegion, so a miss
// copies no year trace and builds no integrator.
TEST(Evaluate, TrioEnginesShareTheStoresPreparedRegions) {
  TraceStore store;
  for (const char* line :
       {R"({"op":"sched","params":{"policy":"greedy","days":1,"rate":0.1,"capacity":1}})",
        R"({"op":"fleetsim","params":{"regions":["KN","TK","ESO","CISO","PJM","MISO","ERCOT"],"policy":"greedy","days":1,"rate":0.1}})"}) {
    const Query q = parse(line);
    const SchedQuery& sq = std::holds_alternative<SchedQuery>(q.params)
                               ? std::get<SchedQuery>(q.params)
                               : std::get<FleetsimQuery>(q.params);
    for (int pass = 0; pass < 2; ++pass) {
      const fleetsim::FleetEngine engine = query_engine(sq, store);
      ASSERT_EQ(engine.sites().size(), 3u) << line;
      for (const sched::Site& site : engine.sites()) {
        const auto stored = store.preset(site.region->code);
        EXPECT_EQ(site.region, stored->prepared)
            << line << " " << site.region->code;
        EXPECT_EQ(site.capacity, sq.capacity) << line;
      }
    }
  }
}

// --- Engine: front-line behaviour -------------------------------------------

/// A private metrics registry with a TraceStore built on it. An engine
/// given its options() counts only its own traffic, trace lookups
/// included; engines on the default global registry share instruments
/// with every other engine in the process, so tests that assert exact
/// counts give each engine one of these.
struct Isolated {
  obs::MetricsRegistry registry;
  TraceStore traces{&registry};

  ServeOptions options(ServeOptions opts = {}) {
    opts.registry = &registry;
    opts.traces = &traces;
    return opts;
  }
};

std::vector<std::string> family_lines() {
  return {
      R"({"id":"q1","op":"embodied","params":{"part":"a100-pcie-40"}})",
      R"({"id":"q2","op":"lifetime","params":{"node":"v100","years":3}})",
      R"({"id":"q3","op":"breakeven","params":{}})",
      R"({"id":"q4","op":"sched","params":{"policy":"greedy","days":7,"rate":1}})",
      R"({"id":"q5","op":"trace","params":{"region":"ESO"}})",
      R"({"id":"q6","op":"fleetsim","params":{"policy":"greedy","days":7,"rate":2}})",
  };
}

TEST(Engine, AnswersAllSixFamilies) {
  Isolated iso;
  Engine engine(iso.options());
  for (const auto& line : family_lines()) {
    const std::string response = engine.handle_line(line);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"result\":{"), std::string::npos) << response;
  }
  EXPECT_EQ(engine.cache_stats().inserts, 6u);
}

TEST(Engine, TraceImportBelowTheCadenceFloorAnswersAnError) {
  // Rows 2^-10 s apart would size a 258 GB year grid, and the
  // std::bad_alloc would pass every handler and abort the daemon. The
  // importer refuses the cadence first, so this is an ordinary ok:false
  // answer and the next line is answered as usual.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hpcarbon_test_tiny_cadence_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path);
    out << "datetime,carbon_intensity\n2021-01-01T00:00:00Z,100\n"
           "2021-01-01T00:00:00.0009765625Z,120\n";
  }
  Isolated iso;
  Engine engine(iso.options());
  const std::string bad = engine.handle_line(
      R"({"op":"trace","params":{"region":"ESO","trace_csv":")" + path +
      R"("}})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("cadence must be at least 60 s"), std::string::npos)
      << bad;
  const std::string next =
      engine.handle_line(R"({"op":"trace","params":{"region":"ESO"}})");
  EXPECT_NE(next.find("\"ok\":true"), std::string::npos) << next;
  std::filesystem::remove(path);
}

// A trace_csv file comes from outside the program, so a fault in it is
// the client's and its answer is the message alone: no source path, line
// or failed expression. The bytes are pinned.
TEST(Engine, InputErrorsAnswerTheirMessageAlone) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hpcarbon_test_input_errors_" + std::to_string(::getpid()));
  std::filesystem::create_directory(dir);
  const std::pair<const char*, const char*> files[] = {
      {"ragged.csv",
       "datetime,carbon_intensity\n2021-01-01T00:00:00Z,100\n"
       "2021-01-01T01:00:00Z\n"},
      {"quote.csv", "datetime,carbon_intensity\n\"2021-01-01,100\n"},
      {"off_grid.csv",
       "datetime,carbon_intensity\n2021-01-01T00:00:00Z,100\n"
       "2021-01-01T01:00:00Z,110\n2021-01-01T02:30:00Z,120\n"},
  };
  for (const auto& [name, text] : files) {
    std::ofstream(dir / name) << text;
  }
  const std::pair<std::string, std::string> cases[] = {
      {(dir / "ragged.csv").string(),
       R"({"error":"ragged CSV row 3: got 1 cells, expected 2","ok":false})"},
      {(dir / "quote.csv").string(),
       R"({"error":"unterminated quote in CSV row 2","ok":false})"},
      {(dir / "off_grid.csv").string(),
       R"x({"error":"timestamp off the 3600.000000 s sample grid (CSV line 4)","ok":false})x"},
      // A directory opens like a file; its first read fails.
      {dir.string(),
       R"({"error":"cannot read file: )" + dir.string() + R"(","ok":false})"},
  };
  Isolated iso;
  Engine engine(iso.options());
  for (const auto& [path, want] : cases) {
    EXPECT_EQ(engine.handle_line(
                  R"({"op":"trace","params":{"region":"ESO","trace_csv":")" +
                  path + R"("}})"),
              want);
  }
  std::filesystem::remove_all(dir);
}

TEST(Requirement, NamesSourcesFromTheRepositoryRoot) {
  // HPC_REQUIRE, kept for the program's own invariants, writes __FILE__
  // into its message. The build maps the source directory away, so it
  // names src/fleetsim/engine.cpp, not the tree that built it.
  std::string error;
  try {
    const fleetsim::FleetEngine engine({}, HourOfYear(0));
  } catch (const Error& e) {
    error = e.what();
  }
  EXPECT_EQ(error.rfind("src/fleetsim/engine.cpp:", 0), 0u) << error;
  EXPECT_NE(error.find("need at least one site"), std::string::npos) << error;
}

TEST(Engine, ErrorResponsesEchoTheIdAndAreNotCached) {
  Isolated iso;
  Engine engine(iso.options());
  const std::string bad = engine.handle_line(
      R"({"id":"oops","op":"embodied","params":{"part":"gtx-480"}})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad.find("\"id\":\"oops\""), std::string::npos);
  EXPECT_NE(bad.find("\"error\":"), std::string::npos);
  const std::string garbage = engine.handle_line("{not json");
  EXPECT_NE(garbage.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(engine.cache_stats().inserts, 0u);
}

TEST(Engine, CacheHitsReturnIdenticalBytes) {
  Isolated iso;
  Engine engine(iso.options());
  const std::string first = engine.handle_line(family_lines()[0]);
  const std::string second = engine.handle_line(family_lines()[0]);
  EXPECT_EQ(first, second);
  // A field-reordered spelling with a different id differs only in the
  // echoed id.
  const std::string reordered = engine.handle_line(
      R"({"params":{"part":"a100-pcie-40"},"op":"embodied","id":"q1"})");
  EXPECT_EQ(reordered, first);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(Engine, BatchMatchesSequentialByteForByte) {
  std::vector<std::string> lines = family_lines();
  lines.push_back(R"({"id":"dup","op":"embodied","params":{"part":"a100-pcie-40"}})");
  lines.push_back(R"({"id":"bad","op":"embodied","params":{"parts":"x"}})");
  // One failing query twice: its repeat takes the same miss path as its
  // leader, answers the same error and caches nothing.
  const std::string missing =
      (std::filesystem::temp_directory_path() /
       ("hpcarbon_missing_" + std::to_string(::getpid()) + ".csv"))
          .string();
  for (const std::string id : {"a", "b"}) {
    lines.push_back(R"({"id":")" + id + R"(","op":"trace","params":{)" +
                    R"("region":"ESO","trace_csv":")" + missing + R"("}})");
  }

  Isolated batch_iso, seq_iso;
  Engine batch_engine(batch_iso.options());
  const auto batch = batch_engine.handle_batch(lines);

  Engine seq_engine(seq_iso.options());
  std::vector<std::string> seq;
  for (const auto& line : lines) seq.push_back(seq_engine.handle_line(line));

  ASSERT_EQ(batch.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(batch[i], seq[i]) << "line " << i;
  }
  EXPECT_EQ(seq.back(), R"({"error":"cannot open file: )" + missing +
                            R"(","id":"b","ok":false})");
  // Both front-ends record the duplicate as a cache hit, nothing for the
  // invalid line, and a miss for each failing line.
  const auto bs = batch_engine.cache_stats();
  const auto ss = seq_engine.cache_stats();
  EXPECT_EQ(bs.hits, 1u);
  EXPECT_EQ(ss.hits, 1u);
  EXPECT_EQ(bs.misses, 8u);
  EXPECT_EQ(bs.misses, ss.misses);
  EXPECT_EQ(bs.inserts, 6u);
}

// The socket server runs begin_line on its IO thread and finish_line on a
// worker; in sequence they are handle_line, bytes and counts alike.
TEST(Engine, TwoHalvesMatchHandleLine) {
  std::vector<std::string> lines = family_lines();
  lines.push_back(R"({"id":"dup","op":"embodied","params":{"part":"a100-pcie-40"}})");
  lines.push_back(R"({"id":"bad","op":"embodied","params":{"parts":"x"}})");
  lines.push_back(R"({"op":"stats","id":"s"})");
  lines.push_back(R"({"op":"metrics","id":"m"})");
  const std::size_t kDup = 6, kBad = 7;

  Isolated split_iso, whole_iso;
  Engine split(split_iso.options());
  Engine whole(whole_iso.options());
  // Latency figures are the only bytes that depend on timing.
  static const std::regex kTimings(
      R"re("(lat_p50_us|lat_p99_us|mean_us|p50_us|p99_us|p999_us|sum_us)":[^,}]*)re");
  auto masked = [](const std::string& r) {
    return std::regex_replace(r, kTimings, "\"$1\":X");
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string sentinel = "earlier bytes|";
    std::string out = sentinel;
    PlannedLine planned;
    const bool answered = split.begin_line(lines[i], out, planned);
    EXPECT_EQ(answered, i == kDup || i == kBad) << "line " << i;
    if (!answered) {
      EXPECT_EQ(out, sentinel) << "line " << i;
      split.finish_line(planned, out);
    }
    ASSERT_EQ(out.compare(0, sentinel.size(), sentinel), 0);
    EXPECT_EQ(masked(out.substr(sentinel.size())),
              masked(whole.handle_line(lines[i])))
        << "line " << i;
  }
  const CacheStats a = split.cache_stats();
  const CacheStats b = whole.cache_stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.hits, 1u);
  EXPECT_EQ(a.misses, 6u);
}

// Acceptance: the batch planner is bit-identical for any worker count.
TEST(Engine, BatchBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> lines = family_lines();
  lines.push_back(R"({"op":"trace","params":{"region":"KN"}})");
  lines.push_back(R"({"op":"lifetime","params":{"node":"a100","samples":64}})");

  ThreadPool one(1);
  ThreadPool seven(7);
  ServeOptions opts1;
  opts1.pool = &one;
  ServeOptions opts7;
  opts7.pool = &seven;
  Engine e1(opts1);
  Engine e7(opts7);
  const auto r1 = e1.handle_batch(lines);
  const auto r7 = e7.handle_batch(lines);
  ASSERT_EQ(r1.size(), r7.size());
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r7[i]);
}

TEST(Engine, BatchDedupsInFlightDuplicates) {
  // Three spellings of one question + one distinct query.
  const std::vector<std::string> lines = {
      R"({"op":"sched","params":{"policy":"greedy","days":7,"rate":1}})",
      R"({"id":"b","op":"sched","params":{"rate":1,"days":7,"policy":"greedy"}})",
      R"({"op":"sched","params":{"policy":"greedy-lowest-ci","days":7,"rate":1}})",
      R"({"op":"embodied","params":{"part":"mi250x"}})",
  };
  Isolated iso;
  Engine engine(iso.options());
  const auto responses = engine.handle_batch(lines);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.inserts, 2u);   // one leader per distinct key
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);      // the two followers
  // All three spellings answered identically (ids aside).
  EXPECT_EQ(responses[0], responses[2]);
  EXPECT_NE(responses[1].find("\"id\":\"b\""), std::string::npos);
}

TEST(Engine, StatsControlRequestReportsCounters) {
  Isolated iso;
  Engine engine(iso.options());
  engine.handle_line(family_lines()[0]);
  engine.handle_line(family_lines()[0]);
  const std::string stats = engine.handle_line(R"({"op":"stats","id":"s"})");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"hits\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"id\":\"s\""), std::string::npos);
  EXPECT_NE(stats.find("\"shards\":8"), std::string::npos);
}

TEST(Engine, StatsControlRequestIsValidatedStrictly) {
  Engine engine;
  // Unknown fields and a non-string id are errors, exactly as on the
  // query families — no silent acceptance on the control path.
  const std::string extra =
      engine.handle_line(R"({"op":"stats","params":{"x":1}})");
  EXPECT_NE(extra.find("\"ok\":false"), std::string::npos) << extra;
  EXPECT_NE(extra.find("unknown top-level field"), std::string::npos);
  const std::string bad_id = engine.handle_line(R"({"op":"stats","id":7})");
  EXPECT_NE(bad_id.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad_id.find("'id' must be a string"), std::string::npos);
}

// A stats line inside a batch is a sequence point: the whole payload,
// stats included, answers byte-identically to a sequential replay.
/// Blank out the two latency quantiles: they summarize wall-clock
/// latency, so their values are timing-dependent. lat_count is not
/// masked: batch records one total latency per query line, as the pipe
/// does.
std::string mask_latency_fields(std::string s) {
  static const std::regex kLat(R"re("lat_(p50_us|p99_us)":[^,}]*)re");
  return std::regex_replace(s, kLat, "\"lat_$1\":X");
}

TEST(Engine, StatsInsideBatchMatchesSequentialReplay) {
  const std::vector<std::string> lines = {
      R"({"op":"embodied","params":{"part":"mi250x"}})",
      R"({"op":"stats","id":"mid"})",
      R"({"op":"embodied","params":{"part":"mi250x"}})",
      R"({"op":"trace","params":{"region":"ESO"}})",
      R"({"op":"stats","id":"end"})",
  };
  // Stats lines report cache and TraceStore counters, so each engine gets
  // its own registry and store: the comparison must not see the other
  // engine's traffic through the process-global ones.
  Isolated batch_iso, seq_iso;
  Engine batch_engine(batch_iso.options());
  const auto batch = batch_engine.handle_batch(lines);
  Engine seq_engine(seq_iso.options());
  std::vector<std::string> seq;
  for (const auto& line : lines) seq.push_back(seq_engine.handle_line(line));
  ASSERT_EQ(batch.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(mask_latency_fields(batch[i]), mask_latency_fields(seq[i]))
        << "line " << i;
  }
  // The mid-stream snapshot reflects only the first query...
  EXPECT_NE(batch[1].find("\"inserts\":1"), std::string::npos) << batch[1];
  EXPECT_NE(batch[1].find("\"hits\":0"), std::string::npos);
  // ...and the final one sees the duplicate's hit and both inserts.
  EXPECT_NE(batch[4].find("\"inserts\":2"), std::string::npos) << batch[4];
  EXPECT_NE(batch[4].find("\"hits\":1"), std::string::npos);
}

TEST(Engine, OversizeLineRejectedWithByteCount) {
  // The shared kMaxRequestLineBytes guard: pipe and batch front-ends
  // reject an oversized request line with an ok:false response carrying
  // its exact byte count — the same document the socket framer (which
  // never buffers the line) produces, so all front-ends stay
  // byte-identical.
  std::string big = R"({"op":"embodied","params":{"part":")";
  big.append(kMaxRequestLineBytes, 'x');
  big += "\"}}";

  Isolated iso;
  Engine engine(iso.options());
  const std::string direct = engine.handle_line(big);
  EXPECT_NE(direct.find(oversize_line_error(big.size())), std::string::npos)
      << direct;
  EXPECT_NE(direct.find("\"ok\":false"), std::string::npos) << direct;
  EXPECT_NE(direct.find(std::to_string(big.size())), std::string::npos);
  EXPECT_EQ(engine.cache_stats().inserts, 0u);  // rejected before parsing

  // Inside a batch the oversized line is answered in place and the rest
  // of the payload is unaffected.
  const auto batch =
      engine.handle_batch({family_lines()[0], big, family_lines()[0]});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1], direct);
  EXPECT_EQ(batch[0], batch[2]);
  EXPECT_NE(batch[0].find("\"ok\":true"), std::string::npos);

  // Exactly at the limit is still served normally.
  std::string at_limit = R"({"op":"embodied","id":")";
  at_limit.append(kMaxRequestLineBytes - at_limit.size() -
                      std::string(R"(","params":{"part":"mi250x"}})").size(),
                  'y');
  at_limit += R"(","params":{"part":"mi250x"}})";
  ASSERT_EQ(at_limit.size(), kMaxRequestLineBytes);
  EXPECT_NE(engine.handle_line(at_limit).find("\"ok\":true"),
            std::string::npos);
}

TEST(Engine, StatsReportsZeroNetCountersWithoutTransport) {
  // Pipe/batch mode has no socket front-end: the net_* counters exist in
  // the stats document (stable schema for dashboards) but read zero.
  Engine engine;
  const std::string stats = engine.handle_line(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"net_accepted\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"net_active\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"net_bytes_in\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"net_bytes_out\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"net_max_inflight\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"net_shed\":0"), std::string::npos);
}

TEST(Engine, StatsReportsBuildUptimeAndLatencySummary) {
  // The extended stats document: build fingerprint, uptime (0 without a
  // transport-provided clock), and the latency-histogram summary — all
  // zero/empty on a fresh engine, lat_count advancing with traffic.
  obs::MetricsRegistry reg;
  ServeOptions opts;
  opts.registry = &reg;
  Engine engine(opts);
  const std::string stats = engine.handle_line(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"build\":\"" + obs::build_fingerprint() + "\""),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"uptime_s\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"lat_count\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"lat_p50_us\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"lat_p99_us\":0"), std::string::npos);
  EXPECT_NE(stats.find("\"shard_entries\":[0,0,0,0,0,0,0,0]"),
            std::string::npos);
  EXPECT_NE(stats.find("\"shard_bytes\":[0,0,0,0,0,0,0,0]"),
            std::string::npos);
  engine.handle_line(family_lines()[0]);
  const std::string after = engine.handle_line(R"({"op":"stats"})");
  EXPECT_NE(after.find("\"lat_count\":1"), std::string::npos) << after;
}

// begin_line records parse latency, so the pipe and the socket count a
// query's parse as batch does, on a miss and on a hit alike.
TEST(Engine, PipeRecordsParseLatency) {
  Isolated iso;
  Engine engine(iso.options());
  auto parse_count = [&engine](const std::string& family) {
    const json::Value metrics =
        *json::Value::parse(engine.handle_line(R"({"op":"metrics"})"))
             .find("result");
    const json::Value* h = metrics.find(
        "hpcarbon_serve_parse_latency_us{family=\"" + family + "\"}");
    EXPECT_NE(h, nullptr) << family;
    return h != nullptr ? h->find("count")->as_number() : -1.0;
  };
  engine.handle_line(family_lines()[0]);  // embodied, a miss
  EXPECT_EQ(parse_count("embodied"), 1.0);
  EXPECT_EQ(parse_count("trace"), 0.0);
  engine.handle_line(family_lines()[0]);  // a hit
  EXPECT_EQ(parse_count("embodied"), 2.0);
}

TEST(Engine, MetricsIdleSnapshotIsByteIdenticalAcrossFrontEnds) {
  // The {"op":"metrics"} snapshot of an idle engine must not leak
  // transport identity: pipe (handle_line) and batch (handle_batch)
  // produce the same bytes, and the metrics request itself is counted
  // only *after* the snapshot, so the first scrape never includes
  // itself. (The socket front-end funnels into the same handle_line —
  // test_net covers the wire path.)
  TraceStore pipe_traces, batch_traces;
  obs::MetricsRegistry pipe_reg, batch_reg;
  ServeOptions pipe_opts;
  pipe_opts.traces = &pipe_traces;
  pipe_opts.registry = &pipe_reg;
  Engine pipe_engine(pipe_opts);
  ServeOptions batch_opts;
  batch_opts.traces = &batch_traces;
  batch_opts.registry = &batch_reg;
  Engine batch_engine(batch_opts);

  const std::string line = R"({"op":"metrics","id":"m1"})";
  const std::string via_pipe = pipe_engine.handle_line(line);
  const auto via_batch = batch_engine.handle_batch({line});
  ASSERT_EQ(via_batch.size(), 1u);
  EXPECT_EQ(via_pipe, via_batch[0]);
  EXPECT_NE(via_pipe.find("\"id\":\"m1\""), std::string::npos) << via_pipe;
  EXPECT_NE(via_pipe.find("\"op\":\"metrics\""), std::string::npos);
  // Idle snapshot: no transport- or process-scoped series.
  EXPECT_EQ(via_pipe.find("hpcarbon_net_"), std::string::npos) << via_pipe;
  EXPECT_EQ(via_pipe.find("hpcarbon_process_"), std::string::npos);
  // The first scrape reports zero metrics-family requests (not itself)...
  EXPECT_NE(
      via_pipe.find("\"hpcarbon_serve_requests_total{family=\\\"metrics\\\"}\":0"),
      std::string::npos)
      << via_pipe;
  // ...and the second sees exactly the first.
  const std::string second = pipe_engine.handle_line(line);
  EXPECT_NE(
      second.find("\"hpcarbon_serve_requests_total{family=\\\"metrics\\\"}\":1"),
      std::string::npos)
      << second;
}

TEST(Engine, MetricsControlRequestIsValidatedStrictly) {
  Engine engine;
  // Unknown fields are rejected, and the error names the op.
  const std::string bad =
      engine.handle_line(R"({"op":"metrics","bogus":1})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("metrics"), std::string::npos) << bad;
}

TEST(Engine, MetricsCountsQueryTraffic) {
  obs::MetricsRegistry reg;
  ServeOptions opts;
  opts.registry = &reg;
  Engine engine(opts);
  engine.handle_line(family_lines()[0]);  // embodied: miss
  engine.handle_line(family_lines()[0]);  // embodied: hit
  const std::string m = engine.handle_line(R"({"op":"metrics"})");
  EXPECT_NE(
      m.find("\"hpcarbon_serve_requests_total{family=\\\"embodied\\\"}\":2"),
      std::string::npos)
      << m;
  EXPECT_NE(m.find("\"hpcarbon_cache_hits_total\":1"), std::string::npos);
  EXPECT_NE(m.find("\"hpcarbon_cache_misses_total\":1"), std::string::npos);
}

TEST(Engine, EvictionKeepsAnsweringCorrectly) {
  // A cache too small for even one response forces every request down the
  // evaluate path; answers stay correct and byte-identical.
  Isolated iso;
  ServeOptions opts = iso.options();
  opts.cache_shards = 1;
  opts.cache_bytes = 96;  // below any response's entry cost
  Engine tiny(opts);
  const std::string a = tiny.handle_line(family_lines()[0]);
  const std::string b = tiny.handle_line(family_lines()[0]);
  EXPECT_EQ(a, b);
  EXPECT_EQ(tiny.cache_stats().entries, 0u);
  Engine normal;
  EXPECT_EQ(normal.handle_line(family_lines()[0]), a);
}

/// Non-empty lines of a tests/data file.
std::vector<std::string> data_lines(const std::string& name) {
  std::ifstream in(std::string(HPCARBON_TEST_DATA_DIR) + "/" + name);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The stats document is a fixed projection of the registry. Its bytes are
// pinned to tests/data/stats_golden.jsonl, recorded while the cache and
// trace store still kept their own tallies: the request fixture twice,
// then one stats line, through the pipe path. Only the two latency
// quantiles are masked, and the golden's build is this binary's.
TEST(Engine, StatsDocumentMatchesGolden) {
  Isolated iso;
  Engine engine(iso.options());
  const std::vector<std::string> requests = data_lines("requests.jsonl");
  ASSERT_FALSE(requests.empty());
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& line : requests) engine.handle_line(line);
  }
  const std::string stats = engine.handle_line(R"({"op":"stats","id":"s"})");

  const std::vector<std::string> golden_lines =
      data_lines("stats_golden.jsonl");
  ASSERT_EQ(golden_lines.size(), 1u);
  std::string golden = golden_lines[0];
  const std::string build_token = "@BUILD@";
  golden.replace(golden.find(build_token), build_token.size(),
                 obs::build_fingerprint());
  static const std::regex kQuantiles(R"re("lat_(p50_us|p99_us)":[^,}]*)re");
  EXPECT_EQ(std::regex_replace(stats, kQuantiles, "\"lat_$1\":X"), golden);

  // One source: every count and level in the stats document equals its
  // series in a metrics snapshot taken straight after it.
  const json::Value st =
      *json::Value::parse(stats).find("result");
  const json::Value mt =
      *json::Value::parse(engine.handle_line(R"({"op":"metrics"})"))
           .find("result");
  auto series = [&](const std::string& id) {
    const json::Value* v = mt.find(id);
    EXPECT_NE(v, nullptr) << id;
    return v != nullptr ? v->as_number() : -1.0;
  };
  const std::pair<const char*, const char*> same[] = {
      {"bytes", "hpcarbon_cache_bytes"},
      {"entries", "hpcarbon_cache_entries"},
      {"evictions", "hpcarbon_cache_evictions_total"},
      {"hits", "hpcarbon_cache_hits_total"},
      {"inserts", "hpcarbon_cache_inserts_total"},
      {"misses", "hpcarbon_cache_misses_total"},
      {"trace_entries", "hpcarbon_trace_store_entries"},
      {"trace_hits", "hpcarbon_trace_store_hits_total"},
      {"trace_misses", "hpcarbon_trace_store_misses_total"},
  };
  for (const auto& [field, id] : same) {
    EXPECT_EQ(st.find(field)->as_number(), series(id)) << field;
  }
  const auto& shard_entries = st.find("shard_entries")->items();
  const auto& shard_bytes = st.find("shard_bytes")->items();
  ASSERT_EQ(shard_entries.size(), 8u);
  ASSERT_EQ(shard_bytes.size(), 8u);
  for (std::size_t i = 0; i < shard_entries.size(); ++i) {
    const std::string l = "{shard=\"" + std::to_string(i) + "\"}";
    EXPECT_EQ(shard_entries[i].as_number(),
              series("hpcarbon_cache_shard_entries" + l));
    EXPECT_EQ(shard_bytes[i].as_number(),
              series("hpcarbon_cache_shard_bytes" + l));
  }
  double lat_count = 0;
  for (const auto& family : query_families()) {
    const json::Value* h =
        mt.find("hpcarbon_serve_total_latency_us{family=\"" + family + "\"}");
    ASSERT_NE(h, nullptr) << family;
    lat_count += h->find("count")->as_number();
  }
  EXPECT_EQ(st.find("lat_count")->as_number(), lat_count);
}

// The exposition lists series in registration order, so the order in
// which an engine registers its cache and trace-store series is part of
// the `metrics --local` and scrape bytes: the cache's counters, its
// totals, each shard's entries before its bytes, then the store's.
TEST(Engine, RegistersCacheSeriesInExpositionOrder) {
  obs::MetricsRegistry reg;
  ServeOptions opts;
  opts.registry = &reg;
  opts.cache_shards = 2;
  const Engine engine(opts);
  std::vector<std::string> ids;
  for (const obs::MetricSample& s : reg.snapshot()) {
    if (s.name.rfind("hpcarbon_cache_", 0) == 0 ||
        s.name.rfind("hpcarbon_trace_store_", 0) == 0) {
      ids.push_back(s.id());
    }
  }
  const std::vector<std::string> expected = {
      "hpcarbon_cache_hits_total",
      "hpcarbon_cache_misses_total",
      "hpcarbon_cache_evictions_total",
      "hpcarbon_cache_inserts_total",
      "hpcarbon_cache_entries",
      "hpcarbon_cache_bytes",
      "hpcarbon_cache_shard_entries{shard=\"0\"}",
      "hpcarbon_cache_shard_bytes{shard=\"0\"}",
      "hpcarbon_cache_shard_entries{shard=\"1\"}",
      "hpcarbon_cache_shard_bytes{shard=\"1\"}",
      "hpcarbon_trace_store_hits_total",
      "hpcarbon_trace_store_misses_total",
      "hpcarbon_trace_store_entries",
  };
  EXPECT_EQ(ids, expected);
}

// Engines built on one registry share its series: each reports the sum
// of both caches' traffic and occupancy, in cache_stats() and in stats.
TEST(Engine, EnginesSharingARegistryReportSummedCounts) {
  Isolated shared;
  Engine a(shared.options());
  Engine b(shared.options());
  Isolated own_a, own_b;
  Engine solo_a(own_a.options());
  Engine solo_b(own_b.options());
  const std::vector<std::string> a_lines = {
      family_lines()[0], family_lines()[0], family_lines()[2]};
  const std::vector<std::string> b_lines = {
      family_lines()[0], family_lines()[4], family_lines()[4],
      family_lines()[4]};
  for (const auto& line : a_lines) {
    EXPECT_EQ(a.handle_line(line), solo_a.handle_line(line));
  }
  for (const auto& line : b_lines) {
    EXPECT_EQ(b.handle_line(line), solo_b.handle_line(line));
  }

  const CacheStats x = solo_a.cache_stats();
  const CacheStats y = solo_b.cache_stats();
  EXPECT_EQ(x.hits, 1u);
  EXPECT_EQ(y.hits, 2u);
  for (const CacheStats& sum : {a.cache_stats(), b.cache_stats()}) {
    EXPECT_EQ(sum.hits, x.hits + y.hits);
    EXPECT_EQ(sum.misses, x.misses + y.misses);
    EXPECT_EQ(sum.inserts, x.inserts + y.inserts);
    EXPECT_EQ(sum.entries, x.entries + y.entries);
    EXPECT_EQ(sum.bytes, x.bytes + y.bytes);
  }
  const std::string stats = a.handle_line(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"hits\":3,"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"inserts\":" + std::to_string(x.inserts + y.inserts) +
                       ","),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"bytes\":" + std::to_string(x.bytes + y.bytes) + ","),
            std::string::npos)
      << stats;
}

}  // namespace
}  // namespace hpcarbon::serve
