// The trio ablation: Sec. 4's cross-region dispatch, asked one way.
//
// A home region runs each policy with the two other listed regions of
// lowest annual median intensity as remote sites (Fig. 7's
// complementarity), scored against fcfs-local on the same jobs, and over
// workload seeds for savings quantiles. `hpcarbon run`, `fleetsim`,
// `sweep`'s sched section, the serve sched and fleetsim families, `bench
// sched-ablation`, `bench forecast`, `bench perf` and `example
// carbon-aware-scheduling` all call these functions; only `bench fleetsim`
// sizes its own sites. tests/data/trio_golden.jsonl pins the ranking.
//
// A trio is assembled from prepared regions (sched/job.h), never from raw
// traces: the CLI callers prepare each trace once per run
// (sched::prepare_regions), and the serve families take each preset's
// prepared region from serve::TraceStore, so a sched or fleetsim miss
// ranks two stored medians and copies three pointers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/time.h"
#include "fleetsim/engine.h"
#include "fleetsim/jobs.h"
#include "mc/distribution.h"
#include "mc/engine.h"
#include "sched/job.h"
#include "sched/metrics.h"
#include "sched/policy.h"

namespace hpcarbon::fleetsim {

/// The carbon-unaware baseline every policy is scored against.
inline constexpr const char* kBaselinePolicy = "fcfs-local";

/// The trio engine of a region list: regions[0] is home, then the two
/// other regions of lowest annual median intensity
/// (PreparedRegion::median_g_per_kwh), cleanest first, ties in list
/// order. Each site shares its prepared region and has `capacity` slots;
/// tick 0 is `epoch`.
FleetEngine trio_engine(const std::vector<sched::RegionPtr>& regions,
                        int capacity, HourOfYear epoch);

struct PolicyScore {
  sched::ScheduleMetrics metrics;
  double savings_pct = 0;  // of the baseline's carbon; 0 if it emitted none
  double run_seconds = 0;  // wall clock of the run, for throughput only
};

struct Ablation {
  sched::ScheduleMetrics baseline;    // the kBaselinePolicy run
  std::vector<PolicyScore> policies;  // in the order named
};

/// Runs kBaselinePolicy once, then each named policy (canonical names) on
/// the same jobs; a named kBaselinePolicy reuses the baseline run. Every
/// policy, the baseline included, is made from `cfg`.
Ablation run_ablation(const FleetEngine& engine, const FleetJobs& jobs,
                      const std::vector<std::string>& policies,
                      const sched::PolicyConfig& cfg = {});

/// run_ablation over workload seeds: sample i generates its jobs from the
/// first draw of mc::substream(plan.seed, i), and each named policy gets
/// one Distribution of its savings_pct, in the order named. FleetEngine
/// runs are const, so the result is bit-identical whatever pool runs it.
std::vector<mc::Distribution> savings_distributions(
    const FleetEngine& engine, const std::vector<std::string>& policies,
    const mc::SamplePlan& plan,
    const std::function<FleetJobs(std::uint64_t seed)>& jobs_for_seed);

}  // namespace hpcarbon::fleetsim
