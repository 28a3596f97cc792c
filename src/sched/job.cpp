#include "sched/job.h"

#include <utility>

#include "core/stats.h"
#include "op/pue.h"

namespace hpcarbon::sched {

PreparedRegion::PreparedRegion(std::string code_in,
                               const grid::CarbonIntensityTrace& local)
    : code(std::move(code_in)),
      trace_utc(local.to_time_zone(kUtc)),
      integrator(trace_utc, op::PueModel()),
      median_g_per_kwh(stats::median(local.values())),
      forecast(trace_utc) {}

RegionPtr prepare_region(const grid::CarbonIntensityTrace& local) {
  return std::make_shared<const PreparedRegion>(local.region_code(), local);
}

std::vector<RegionPtr> prepare_regions(
    const std::vector<grid::CarbonIntensityTrace>& traces) {
  std::vector<RegionPtr> out;
  out.reserve(traces.size());
  for (const auto& trace : traces) out.push_back(prepare_region(trace));
  return out;
}

Site make_site(const std::string& code,
               const grid::CarbonIntensityTrace& local, int capacity,
               Energy transfer_energy) {
  return Site{std::make_shared<const PreparedRegion>(code, local), capacity,
              transfer_energy};
}

}  // namespace hpcarbon::sched
