#include "sched/workload_gen.h"

#include "core/error.h"

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
    j.submit_hour = t;
    draw_job_attributes(j, p.user_count, rng);
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
