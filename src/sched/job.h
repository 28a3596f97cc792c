// Jobs and sites for the carbon-intensity-aware scheduler.
//
// Sec. 4 of the paper identifies "a strong opportunity for systems
// researchers to design, develop, and deploy carbon-intensity-aware job
// schedulers" exploiting the temporal and cross-region variations of
// Figs. 6-7, plus a per-user carbon-budget incentive structure. This module
// is that actionable artifact: a discrete-event scheduler over multiple
// regional HPC sites fed by the grid traces.
//
// A site is two parts. What it reads from its region's grid (the year in
// UTC, the PUE-weighted integrator the engine prices jobs with, the annual
// median the trio ranking reads) depends on the trace alone, so it is a
// PreparedRegion: built once, immutable, and shared by every Site and
// every engine on that region (serve::TraceStore keeps one per preset).
// What differs per engine (slots and transfer energy) sits in the Site.
// Copying a Site copies a pointer, not a year.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/units.h"
#include "grid/trace.h"
#include "op/operational.h"

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

/// A region's grid as every site on it reads it. Traces are stored in UTC
/// so that all sites share the simulator's global clock.
struct PreparedRegion {
  /// Shifts `local` to UTC, weights it by the default op::PueModel and
  /// takes its annual median.
  PreparedRegion(std::string code, const grid::CarbonIntensityTrace& local);

  std::string code;                   // "ESO"
  grid::CarbonIntensityTrace trace_utc;
  op::CarbonIntegrator integrator;    // trace_utc weighted by the default PUE
  double median_g_per_kwh = 0;        // stats::median of the year's samples
};

using RegionPtr = std::shared_ptr<const PreparedRegion>;

/// The prepared region of `local`, named by its region code.
RegionPtr prepare_region(const grid::CarbonIntensityTrace& local);
/// prepare_region of each trace, in order.
std::vector<RegionPtr> prepare_regions(
    const std::vector<grid::CarbonIntensityTrace>& traces);

/// One regional HPC site: a shared prepared region plus its own size.
struct Site {
  RegionPtr region;
  int capacity = 16;         // concurrently running jobs
  /// WAN transfer energy for shipping a remote job's data (charged at the
  /// destination's carbon intensity at dispatch time) — the cost Fig. 7's
  /// implication says distribution policies must weigh. Default sized for
  /// a ~100 GB dataset at published WAN transport intensities.
  Energy transfer_energy = Energy::kilowatt_hours(0.5);
};

/// A site on a region of its own, prepared from `local` and named `code`.
Site make_site(const std::string& code, const grid::CarbonIntensityTrace& local,
               int capacity, Energy transfer_energy = Energy::kilowatt_hours(0.5));

}  // namespace hpcarbon::sched
