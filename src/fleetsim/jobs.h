// Struct-of-arrays job storage for the fleet simulator, on an integer
// tick clock.
//
// Jobs are parallel vectors (submit/duration ticks, IT power, user id)
// rather than one 72-byte Job struct each, and time is quantized to an
// integer tick grid:
//
//   kTicksPerHour = 1024 (a power of two)
//
// so every event time is tick/1024 hours — *exactly* representable as a
// double (the numerator stays far below 2^53 for any simulated horizon).
// Sums and differences of tick-quantized hours are therefore exact FP
// arithmetic, and fleetsim::FleetEngine matches events with integer
// compares, no 1e-12 epsilon anywhere.
//
// Double-hour workloads (sched::generate_jobs, the jobs CSV) enter the
// grid through FleetJobs::from_jobs, which snaps every submit time and
// duration to the nearest tick: at most 1/2048 h (about 1.8 s) per time.
// On the `hpcarbon run` trio that moves a policy's savings_pct by a few
// hundredths of a percentage point (tests/test_fleetsim.cpp bounds it).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "core/units.h"
#include "sched/job.h"

namespace hpcarbon::fleetsim {

/// Simulation time in ticks since the epoch, on the tick clock of
/// core/time.h: 1024 ticks per hour keeps sub-4-second resolution, and
/// int64 never wraps for any realistic horizon.
using hpcarbon::hours_of;
using hpcarbon::kTicksPerHour;
using hpcarbon::Tick;

/// Largest submit time and duration a job may have, in hours (about 114
/// years). Every double-hour workload enters through FleetJobs::from_jobs,
/// which requires it before converting: outside the int64 range llround's
/// result is unspecified, and a window loop that runs once per job hour
/// must stay bounded. parse_jobs_csv rejects larger cells by line number.
inline constexpr double kMaxJobHours = 1e6;

/// Nearest tick to a fractional-hour value (snapping error <= 1/2048 h,
/// about 1.8 s). Bridges double-based workloads into the tick grid.
inline Tick nearest_tick(double hours) {
  return static_cast<Tick>(
      std::llround(hours * static_cast<double>(kTicksPerHour)));
}

/// kMaxJobHours on the tick grid: the bound FleetJobs::validate holds
/// submit and duration ticks to.
inline constexpr Tick kMaxJobTicks =
    static_cast<Tick>(kMaxJobHours) * kTicksPerHour;

/// Smallest tick >= the fractional-hour value: policy-planned starts that
/// are not tick-aligned wake the engine at the next grid point.
inline Tick ceil_tick(double hours) {
  return static_cast<Tick>(
      std::ceil(hours * static_cast<double>(kTicksPerHour)));
}

/// True when `hours` lies exactly on the tick grid (round-trips through
/// the tick representation without loss).
inline bool tick_aligned(double hours) {
  return hours_of(nearest_tick(hours)) == hours;
}

/// Parallel-vector job storage. Jobs are kept sorted by submit tick
/// (validate() enforces it); `user` indexes into the `users` name table so
/// a million jobs over eight users store eight strings, not a million.
/// Inside a run users are these indexes (sched::Job::user, the budget
/// ledger); names are turned into indexes only where they enter (the
/// generators, the jobs CSV) and looked up again only to print.
struct FleetJobs {
  std::vector<std::int32_t> id;        // stable external id (outcome joins)
  std::vector<Tick> submit;            // sorted ascending
  std::vector<Tick> duration;          // > 0
  std::vector<Power> power;            // average IT draw while running
  std::vector<std::uint32_t> user;     // index into `users`
  std::vector<std::string> users;      // user names; may name idle users

  std::size_t size() const { return submit.size(); }
  bool empty() const { return submit.empty(); }

  /// Append one job of user index `user_index`.
  void push(std::int32_t job_id, Tick submit_tick, Tick duration_tick,
            Power it_power, std::uint32_t user_index);

  /// Throws hpcarbon::Error unless submits are sorted, durations are
  /// positive, submits and durations are at most kMaxJobTicks, and every
  /// user index is in range.
  void validate() const;

  /// Quantize a double-based workload onto the tick grid (nearest tick;
  /// durations clamp up to one tick so no job becomes instantaneous) and
  /// sort by submit. Ids and user indexes are kept; `users` names the
  /// indexes (sched::generated_user_names for sched::generate_jobs).
  /// Throws hpcarbon::Error when a submit time or duration is NaN or
  /// exceeds kMaxJobHours in magnitude.
  static FleetJobs from_jobs(const std::vector<sched::Job>& jobs,
                             std::vector<std::string> users);

  /// Materialize sched::Job values (exact: tick times convert to the same
  /// doubles the engine computes with), one plain 32-byte copy per job:
  /// users stay indexes, so no string is copied. Used to brief policies'
  /// begin_run() and by the tests.
  std::vector<sched::Job> to_jobs() const;
};

/// Parse a job-trace CSV into FleetJobs. Expected columns, with a header
/// row (extra columns rejected):
///
///   submit_hours,duration_hours,power_kw,user[,site]
///
/// User names are interned as the rows are parsed, through a hash map:
/// `users` lists them in order of first appearance in the file, and the
/// cost stays linear in the rows however many distinct users there are.
/// The optional `site` column carries the job's origin site from the
/// recording cluster; it is validated against [0, site_count) and reported
/// via `origin_site` when requested, but placement stays with the policy.
/// Throws hpcarbon::Error with 1-based source line numbers on ragged rows,
/// malformed or non-finite numbers, non-positive durations or powers,
/// negative submits, submits or durations above kMaxJobHours, or
/// out-of-range sites — same contract as the grid-trace importer.
FleetJobs parse_jobs_csv(const std::string& text, std::size_t site_count = 1,
                         std::vector<std::int32_t>* origin_site = nullptr);

/// read_file + parse_jobs_csv.
FleetJobs load_jobs_csv(const std::string& path, std::size_t site_count = 1,
                        std::vector<std::int32_t>* origin_site = nullptr);

}  // namespace hpcarbon::fleetsim
