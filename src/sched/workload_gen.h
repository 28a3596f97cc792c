// Synthetic job-stream generator for scheduler experiments.
//
// Poisson arrivals with lognormal durations reproduce the heavy-tailed job
// mixes reported for production GPU clusters (Helios, MIT Supercloud,
// Philly), which is all the scheduler ablations need. Every job's
// attributes come from draw_job_attributes, which fleetsim's generator
// shares; only the arrival streams differ.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "sched/job.h"

namespace hpcarbon::sched {

struct WorkloadParams {
  double horizon_hours = 24.0 * 28;  // four weeks
  double arrival_rate_per_hour = 4.0;
  int user_count = 8;
  std::uint64_t seed = 2024;
};

/// Draws one job's user, duration and IT power from `rng`, in that order:
/// a user index in [0, user_count); min(96, lognormal(1.2, 1.0)) hours
/// (exp(1.2) ~ 3.3 h median); uniform in [0.6, 2.4) kW, from 1-2 GPU jobs
/// to full 4-GPU nodes. Both job generators (generate_jobs and
/// fleetsim::generate_fleet_jobs) draw every job's attributes here.
inline void draw_job_attributes(Job& j, int user_count, Rng& rng) {
  j.user = static_cast<std::uint32_t>(rng.uniform_int(0, user_count - 1));
  j.duration_hours = std::min(96.0, rng.lognormal(1.2, 1.0));
  j.it_power = Power::kilowatts(rng.uniform(0.6, 2.4));
}

/// Jobs in submit order; each job's `user` is an index in
/// [0, user_count), named by generated_user_names(user_count).
std::vector<Job> generate_jobs(const WorkloadParams& params);

/// Names of generated users: user k is "user<k>". Both job generators
/// (this one and fleetsim::generate_fleet_jobs) name their users here.
std::vector<std::string> generated_user_names(int user_count);

}  // namespace hpcarbon::sched
