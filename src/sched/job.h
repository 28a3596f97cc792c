// Jobs and sites for the carbon-intensity-aware scheduler.
//
// Sec. 4 of the paper identifies "a strong opportunity for systems
// researchers to design, develop, and deploy carbon-intensity-aware job
// schedulers" exploiting the temporal and cross-region variations of
// Figs. 6-7, plus a per-user carbon-budget incentive structure. This module
// is that actionable artifact: a discrete-event scheduler over multiple
// regional HPC sites fed by the grid traces.
#pragma once

#include <cstdint>
#include <string>

#include "core/units.h"
#include "grid/trace.h"

namespace hpcarbon::sched {

/// One job. `user` indexes the run's user-name table
/// (fleetsim::FleetJobs::users()), so a Job holds no string and copies as
/// 32 plain bytes.
struct Job {
  int id = 0;
  std::uint32_t user = 0;
  double submit_hour = 0;    // global (UTC) hours since simulation start
  double duration_hours = 0;
  Power it_power;            // average IT draw while running
};

/// One regional HPC site. Traces are stored in UTC internally so that all
/// sites share the simulator's global clock.
struct Site {
  std::string code;          // "ESO"
  grid::CarbonIntensityTrace trace_utc;
  int capacity = 16;         // concurrently running jobs
  /// WAN transfer energy for shipping a remote job's data (charged at the
  /// destination's carbon intensity at dispatch time) — the cost Fig. 7's
  /// implication says distribution policies must weigh. Default sized for
  /// a ~100 GB dataset at published WAN transport intensities.
  Energy transfer_energy = Energy::kilowatt_hours(0.5);
};

Site make_site(const std::string& code, const grid::CarbonIntensityTrace& local,
               int capacity, Energy transfer_energy = Energy::kilowatt_hours(0.5));

}  // namespace hpcarbon::sched
