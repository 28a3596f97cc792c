#include "fleetsim/ablation.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/error.h"
#include "core/rng.h"

namespace hpcarbon::fleetsim {

FleetEngine trio_engine(const std::vector<sched::RegionPtr>& regions,
                        int capacity, HourOfYear epoch) {
  HPC_REQUIRE(!regions.empty(), "a trio needs a home region");
  // Only the remote candidates are ranked: the home's median is not read.
  std::vector<sched::RegionPtr> ranked(regions.begin() + 1, regions.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const sched::RegionPtr& a, const sched::RegionPtr& b) {
                     return a->median_g_per_kwh < b->median_g_per_kwh;
                   });
  std::vector<sched::Site> sites = {sched::Site{regions[0], capacity}};
  for (std::size_t k = 0; k < std::min<std::size_t>(ranked.size(), 2); ++k) {
    sites.push_back(sched::Site{ranked[k], capacity});
  }
  return FleetEngine(std::move(sites), epoch);
}

Ablation run_ablation(const FleetEngine& engine, const FleetJobs& jobs,
                      const std::vector<std::string>& policies,
                      const sched::PolicyConfig& cfg) {
  // A fresh policy per run: policies keep per-run state.
  const auto timed_run = [&](const std::string& name) {
    const auto policy = sched::make_policy(name, cfg);
    const auto start = std::chrono::steady_clock::now();
    PolicyScore score{engine.run(jobs, *policy)};
    score.run_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return score;
  };
  const PolicyScore baseline = timed_run(kBaselinePolicy);
  const double base_g = baseline.metrics.total_carbon.to_grams();
  Ablation out{baseline.metrics, {}};
  for (const std::string& name : policies) {
    PolicyScore score = name == kBaselinePolicy ? baseline : timed_run(name);
    const double g = score.metrics.total_carbon.to_grams();
    score.savings_pct = base_g > 0 ? 100.0 * (base_g - g) / base_g : 0.0;
    out.policies.push_back(score);
  }
  return out;
}

std::vector<mc::Distribution> savings_distributions(
    const FleetEngine& engine, const std::vector<std::string>& policies,
    const mc::SamplePlan& plan,
    const std::function<FleetJobs(std::uint64_t seed)>& jobs_for_seed) {
  return mc::Engine(plan).run_multi(
      policies.size(), [&](std::size_t, Rng& rng, std::span<double> out) {
        const Ablation ablation =
            run_ablation(engine, jobs_for_seed(rng.next_u64()), policies);
        for (std::size_t p = 0; p < out.size(); ++p) {
          out[p] = ablation.policies[p].savings_pct;
        }
      });
}

}  // namespace hpcarbon::fleetsim
