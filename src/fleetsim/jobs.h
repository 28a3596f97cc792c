// The fleet simulator's job list, on an integer tick clock.
//
// A FleetJobs is one immutable fleet: its arrivals, sorted by submit time,
// as the 32-byte sched::Job values policies receive, and the names of its
// users. Time is quantized to an integer tick grid:
//
//   kTicksPerHour = 1024 (a power of two)
//
// so every event time is tick/1024 hours — *exactly* representable as a
// double (the numerator stays far below 2^53 for any simulated horizon).
// Sums and differences of tick-quantized hours are therefore exact FP
// arithmetic, and fleetsim::FleetEngine matches events with integer
// compares, no 1e-12 epsilon anywhere.
//
// The constructor is the only way to build a fleet. It checks every job
// once and snaps each submit time and duration to the nearest tick: at
// most 1/2048 h (about 1.8 s) per time, and nothing for times already on
// the grid (generated submit times, tick-aligned CSVs). A run neither
// re-checks nor copies a job: FleetEngine hands arrivals() to the policy
// and the view in place and reads each tick from the fleet's tables. On
// the `hpcarbon run` trio the snapping moves a policy's savings_pct by a
// few hundredths of a percentage point (tests/test_fleetsim.cpp bounds
// it).
//
// Beside the 32-byte jobs a fleet holds 16 bytes per job, four 32-bit
// tables built once by the constructor: each arrival's submit and
// duration ticks, and its natural completion order. A job's natural tick
// is submit + duration, when it completes if it starts the moment it is
// submitted; the order lists the arrivals by natural tick, equal ticks in
// arrival order. It depends only on the fleet, so every run of it shares
// it: FleetEngine frees the slots of on-time starts in this order instead
// of through its completion heap (fleetsim/engine.h).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/time.h"
#include "sched/job.h"

namespace hpcarbon::fleetsim {

/// Simulation time in ticks since the epoch, on the tick clock of
/// core/time.h: 1024 ticks per hour keeps sub-4-second resolution, and
/// int64 never wraps for any realistic horizon.
using hpcarbon::hours_of;
using hpcarbon::kTicksPerHour;
using hpcarbon::Tick;

/// Largest submit time and duration a job may have, in hours (about 114
/// years). The FleetJobs constructor requires it before converting:
/// outside the int64 range llround's result is unspecified, and a window
/// loop that runs once per job hour must stay bounded. parse_jobs_csv
/// rejects larger cells by line number.
inline constexpr double kMaxJobHours = 1e6;

/// Nearest tick to a fractional-hour value (snapping error <= 1/2048 h,
/// about 1.8 s). Bridges double-based workloads into the tick grid. A
/// time already on the grid converts exactly, and only an off-grid one
/// pays for llround. `hours` must be finite and bounded (kMaxJobHours
/// for job times), so the tick fits an int64 and the cast is defined.
inline Tick nearest_tick(double hours) {
  const double x = hours * static_cast<double>(kTicksPerHour);
  const auto tick = static_cast<Tick>(x);
  return static_cast<double>(tick) == x ? tick
                                        : static_cast<Tick>(std::llround(x));
}

/// kMaxJobHours on the tick grid: no submit or duration tick of a fleet
/// exceeds it.
inline constexpr Tick kMaxJobTicks =
    static_cast<Tick>(kMaxJobHours) * kTicksPerHour;

// A fleet's tick tables are 32-bit: a submit plus a duration, each at most
// kMaxJobTicks, is a natural tick that fits exactly.
static_assert(2 * kMaxJobTicks <= std::numeric_limits<std::uint32_t>::max(),
              "natural completion ticks must fit the 32-bit tick tables");

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

/// One fleet's jobs, validated and on the tick grid. `Job::user` indexes
/// the users() name table, so a million jobs over eight users store eight
/// strings, not a million. Inside a run users are these indexes
/// (sched::Job::user, the budget ledger); names are turned into indexes
/// only where they enter (the generators, the jobs CSV) and looked up
/// again only to print.
class FleetJobs {
 public:
  /// An empty fleet: a run of it yields zero metrics.
  FleetJobs() = default;

  /// The fleet of `jobs` (times in fractional hours; ids, powers and user
  /// indexes are kept), whose user indexes `users` names. Unsorted input
  /// is stable-sorted by submit time first, so jobs submitted at the same
  /// instant keep their input order; then every time snaps to the nearest
  /// tick, submits clamped up to 0 and durations to one tick, so no job
  /// becomes instantaneous, and the tick tables and the natural order are
  /// built from the snapped ticks. Throws hpcarbon::Error when a submit
  /// time or duration is NaN or exceeds kMaxJobHours in magnitude, when a
  /// user index has no name, or for 2^32 jobs or more (a queue entry holds
  /// its arrival index in 32 bits).
  FleetJobs(std::vector<sched::Job> jobs, std::vector<std::string> users);

  /// The jobs in submit order, every time on the tick grid: the vector
  /// SchedulingPolicy::begin_run receives and ClusterView::job reads.
  const std::vector<sched::Job>& arrivals() const { return arrivals_; }
  /// Names of the user indexes; may name idle users.
  const std::vector<std::string>& users() const { return users_; }

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }

  /// Arrival i's submit time and duration in ticks: the ticks the
  /// constructor snapped arrivals()[i]'s hours to.
  Tick submit_tick(std::size_t i) const { return submit_ticks_[i]; }
  Tick duration_tick(std::size_t i) const { return duration_ticks_[i]; }

  /// Arrival i's position in the natural completion order: positions
  /// ascend by natural tick (submit + duration), and equal natural ticks
  /// keep arrival order. A bijection of [0, size()).
  std::uint32_t natural_position(std::size_t i) const {
    return natural_positions_[i];
  }
  /// The natural tick of the arrival at position `p` of that order.
  Tick natural_tick(std::size_t p) const { return natural_ticks_[p]; }

 private:
  std::vector<sched::Job> arrivals_;
  std::vector<std::string> users_;
  std::vector<std::uint32_t> submit_ticks_;       // by arrival
  std::vector<std::uint32_t> duration_ticks_;     // by arrival
  std::vector<std::uint32_t> natural_positions_;  // by arrival
  std::vector<std::uint32_t> natural_ticks_;      // by position
};

/// Parse a job-trace CSV into FleetJobs. Expected columns, with a header
/// row (extra columns rejected):
///
///   submit_hours,duration_hours,power_kw,user[,site]
///
/// User names are interned as the rows are parsed, through a hash map:
/// users() lists them in order of first appearance in the file, and the
/// cost stays linear in the rows however many distinct users there are.
/// Job ids are the file's data rows, from 0. The optional `site` column
/// carries the job's origin site from the recording cluster; it is
/// validated against [0, site_count), but placement stays with the policy.
/// Throws hpcarbon::Error with 1-based source line numbers on ragged rows,
/// malformed or non-finite numbers, non-positive durations or powers,
/// negative submits, submits or durations above kMaxJobHours, or
/// out-of-range sites — same contract as the grid-trace importer.
FleetJobs parse_jobs_csv(const std::string& text, std::size_t site_count = 1);

/// read_file + parse_jobs_csv.
FleetJobs load_jobs_csv(const std::string& path, std::size_t site_count = 1);

}  // namespace hpcarbon::fleetsim
