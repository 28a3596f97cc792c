// Outcome of one scheduling run: what fleetsim::FleetEngine::run returns
// for every policy, and what the savings columns of `run`, `sweep`, the
// serve sched/fleetsim families, and the benches are computed from.
#pragma once

#include "core/units.h"

namespace hpcarbon::sched {

struct ScheduleMetrics {
  Mass total_carbon;       // compute + transfer
  Mass transfer_carbon;
  Energy total_energy;     // facility side
  double mean_wait_hours = 0;
  double p95_wait_hours = 0;
  double utilization = 0;  // busy node-hours / available node-hours
  int jobs_completed = 0;
  int remote_dispatches = 0;
};

}  // namespace hpcarbon::sched
