// Seeded synthetic arrival processes for the fleet simulator.
//
// Three processes cover the workload shapes the scheduling literature
// cares about at fleet scale:
//
//  * poisson — memoryless arrivals at a constant rate (the workload_gen
//    baseline, generated directly onto the tick grid);
//  * diurnal — a sinusoidally modulated Poisson process (office-hours
//    load) realized by thinning, so the accept/reject stream is exactly
//    reproducible from the seed;
//  * bursty  — Poisson burst epochs carrying exponential-sized batches of
//    simultaneous submissions (campaign launches, array jobs).
//
// Draws come from two mc::substream-derived generators — one for the
// arrival process, one for job attributes — so two processes with the
// same seed share their duration/power/user sequence and differ only in
// *when* jobs land. The attributes are drawn by
// sched::draw_job_attributes, as sched::generate_jobs draws its own.
// Everything is a pure function of the params (seeded xoshiro256**, no
// wall clock), so generated fleets are bit-identical across machines and
// thread counts.
#pragma once

#include <cstdint>
#include <string>

#include "fleetsim/jobs.h"

namespace hpcarbon::fleetsim {

enum class ArrivalProcess { kPoisson, kDiurnal, kBursty };

const char* to_string(ArrivalProcess p);
/// "poisson" | "diurnal" | "bursty"; throws hpcarbon::Error otherwise.
ArrivalProcess arrival_process_from(const std::string& name);

struct FleetWorkloadParams {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double horizon_hours = 24.0 * 28;
  /// Mean arrivals per hour (the diurnal modulation and bursty batching
  /// both preserve this long-run average, the latter approximately).
  double rate_per_hour = 4.0;
  /// Diurnal: rate(t) = rate * (1 + A cos(2*pi*(t - peak)/24)), A in [0,1).
  double diurnal_amplitude = 0.6;
  double diurnal_peak_hour = 14.0;
  /// Bursty: burst epochs arrive at rate/burst_mean_size; each carries an
  /// exponential-sized batch (mean burst_mean_size, minimum 1) submitted
  /// at the same tick.
  double burst_mean_size = 8.0;
  int user_count = 8;
  std::uint64_t seed = 2024;
};

/// Generate a tick-aligned fleet workload. Ids are 0..n-1 in submit order.
FleetJobs generate_fleet_jobs(const FleetWorkloadParams& params);

}  // namespace hpcarbon::fleetsim
