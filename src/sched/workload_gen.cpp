#include "sched/workload_gen.h"

#include <algorithm>

#include "core/error.h"
#include "core/rng.h"

namespace hpcarbon::sched {

std::vector<Job> generate_jobs(const WorkloadParams& p) {
  HPC_REQUIRE(p.horizon_hours > 0, "horizon must be positive");
  HPC_REQUIRE(p.arrival_rate_per_hour > 0, "arrival rate must be positive");
  HPC_REQUIRE(p.user_count > 0, "need at least one user");
  Rng rng(p.seed);
  std::vector<Job> jobs;
  double t = 0;
  int id = 0;
  while (true) {
    t += rng.exponential(p.arrival_rate_per_hour);
    if (t >= p.horizon_hours) break;
    Job j;
    j.id = id++;
    j.user = static_cast<std::uint32_t>(rng.uniform_int(0, p.user_count - 1));
    j.submit_hour = t;
    j.duration_hours = std::min(
        p.max_duration_hours, rng.lognormal(p.duration_log_mean,
                                            p.duration_log_sigma));
    j.it_power = Power::kilowatts(rng.uniform(p.min_power_kw, p.max_power_kw));
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<std::string> generated_user_names(int user_count) {
  std::vector<std::string> names;
  for (int k = 0; k < user_count; ++k) {
    names.push_back("user" + std::to_string(k));
  }
  return names;
}

}  // namespace hpcarbon::sched
