#include "fleetsim/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "mc/engine.h"
#include "sched/workload_gen.h"

namespace hpcarbon::fleetsim {

const char* to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kDiurnal: return "diurnal";
    case ArrivalProcess::kBursty: return "bursty";
  }
  return "?";
}

ArrivalProcess arrival_process_from(const std::string& name) {
  if (name == "poisson") return ArrivalProcess::kPoisson;
  if (name == "diurnal") return ArrivalProcess::kDiurnal;
  if (name == "bursty") return ArrivalProcess::kBursty;
  throw Error("unknown arrival process '" + name +
              "' (known: poisson, diurnal, bursty)");
}

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Submit ticks for one realization of the process over the horizon.
std::vector<Tick> arrival_ticks(const FleetWorkloadParams& p, Rng& rng) {
  std::vector<Tick> ticks;
  const double horizon = p.horizon_hours;
  switch (p.process) {
    case ArrivalProcess::kPoisson: {
      double t = 0;
      while (true) {
        t += rng.exponential(p.rate_per_hour);
        if (t >= horizon) break;
        ticks.push_back(nearest_tick(t));
      }
      break;
    }
    case ArrivalProcess::kDiurnal: {
      // Thinning: candidates at the peak rate, each kept with probability
      // rate(t)/peak — exact for an inhomogeneous Poisson process, and
      // the accept stream is one uniform per candidate, so reproducible.
      // A draw below the trough rate is kept without the cosine: cos is
      // never below -1 and each rounded step of rate(t) is monotone, so
      // rate(t) >= trough, and the cosine draws nothing from the stream.
      const double peak = p.rate_per_hour * (1.0 + p.diurnal_amplitude);
      const double trough =
          p.rate_per_hour * (1.0 + p.diurnal_amplitude * -1.0);
      double t = 0;
      const auto rate = [&] {
        return p.rate_per_hour *
               (1.0 + p.diurnal_amplitude *
                          std::cos(kTwoPi * (t - p.diurnal_peak_hour) / 24.0));
      };
      while (true) {
        t += rng.exponential(peak);
        if (t >= horizon) break;
        const double draw = rng.uniform() * peak;
        if (draw < trough || draw < rate()) ticks.push_back(nearest_tick(t));
      }
      break;
    }
    case ArrivalProcess::kBursty: {
      const double epoch_rate = p.rate_per_hour / p.burst_mean_size;
      double t = 0;
      while (true) {
        t += rng.exponential(epoch_rate);
        if (t >= horizon) break;
        const auto batch = std::max<long long>(
            1, std::llround(rng.exponential(1.0 / p.burst_mean_size)));
        const Tick tick = nearest_tick(t);
        for (long long b = 0; b < batch; ++b) ticks.push_back(tick);
      }
      break;
    }
  }
  return ticks;
}

}  // namespace

FleetJobs generate_fleet_jobs(const FleetWorkloadParams& p) {
  HPC_REQUIRE(p.horizon_hours > 0, "fleet workload: horizon must be positive");
  HPC_REQUIRE(p.rate_per_hour > 0, "fleet workload: rate must be positive");
  HPC_REQUIRE(p.user_count > 0, "fleet workload: need at least one user");
  HPC_REQUIRE(p.diurnal_amplitude >= 0 && p.diurnal_amplitude < 1,
              "fleet workload: diurnal amplitude must be in [0, 1)");
  HPC_REQUIRE(p.burst_mean_size >= 1,
              "fleet workload: burst mean size must be >= 1");

  // Substream 0 drives the arrival process, substream 1 the per-job
  // attributes: the attribute sequence is process-independent for a seed.
  Rng arrival_rng = mc::substream(p.seed, 0);
  Rng attr_rng = mc::substream(p.seed, 1);

  const std::vector<Tick> ticks = arrival_ticks(p, arrival_rng);
  std::vector<sched::Job> jobs(ticks.size());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    sched::Job& j = jobs[i];
    j.id = static_cast<int>(i);
    j.submit_hour = hours_of(ticks[i]);
    sched::draw_job_attributes(j, p.user_count, attr_rng);
  }
  // The submit ticks ascend, so the constructor does not sort; it snaps
  // each duration to the grid.
  return FleetJobs(std::move(jobs),
                   sched::generated_user_names(p.user_count));
}

}  // namespace hpcarbon::fleetsim
