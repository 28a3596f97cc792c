// Synthetic job-stream generator for scheduler experiments.
//
// Poisson arrivals with lognormal durations reproduce the heavy-tailed job
// mixes reported for production GPU clusters (Helios, MIT Supercloud,
// Philly), which is all the scheduler ablations need.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/job.h"

namespace hpcarbon::sched {

struct WorkloadParams {
  double horizon_hours = 24.0 * 28;  // four weeks
  double arrival_rate_per_hour = 4.0;
  double duration_log_mean = 1.2;    // exp(1.2) ~ 3.3 h median
  double duration_log_sigma = 1.0;
  double max_duration_hours = 96.0;
  double min_power_kw = 0.6;         // 1-2 GPU jobs
  double max_power_kw = 2.4;         // full 4-GPU node jobs
  int user_count = 8;
  std::uint64_t seed = 2024;
};

/// Jobs in submit order; each job's `user` is an index in
/// [0, user_count), named by generated_user_names(user_count).
std::vector<Job> generate_jobs(const WorkloadParams& params);

/// Names of generated users: user k is "user<k>". Both job generators
/// (this one and fleetsim::generate_fleet_jobs) name their users here.
std::vector<std::string> generated_user_names(int user_count);

}  // namespace hpcarbon::sched
