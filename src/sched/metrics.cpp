#include "sched/metrics.h"

#include <sstream>

namespace hpcarbon::sched {

std::string ScheduleMetrics::to_string() const {
  std::ostringstream out;
  out << "carbon " << hpcarbon::to_string(total_carbon) << " (transfer "
      << hpcarbon::to_string(transfer_carbon) << "), energy "
      << hpcarbon::to_string(total_energy) << ", mean wait "
      << mean_wait_hours << " h, p95 wait " << p95_wait_hours
      << " h, utilization " << utilization << ", jobs " << jobs_completed
      << ", remote " << remote_dispatches;
  return out.str();
}

}  // namespace hpcarbon::sched
