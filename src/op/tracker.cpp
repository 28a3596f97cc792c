#include "op/tracker.h"

#include <algorithm>
#include <sstream>

#include "core/error.h"
#include "hw/perf.h"
#include "op/operational.h"

namespace hpcarbon::op {

std::string TrackerReport::to_string() const {
  std::ostringstream out;
  out << "job: " << job_name << "\n"
      << "  duration:          " << duration.count() << " h\n"
      << "  IT energy:         " << hpcarbon::to_string(it_energy) << "\n"
      << "  facility energy:   " << hpcarbon::to_string(facility_energy)
      << "\n"
      << "  avg power:         " << hpcarbon::to_string(average_power) << "\n"
      << "  avg CI:            " << hpcarbon::to_string(average_intensity)
      << "\n"
      << "  operational CO2:   " << hpcarbon::to_string(carbon) << "\n";
  return out.str();
}

Tracker::Tracker(const grid::CarbonIntensityTrace& trace, HourOfYear start,
                 TrackerOptions opts)
    : trace_(&trace), start_(start), opts_(opts) {}

TrackerReport Tracker::track(const std::string& job_name,
                             const hw::PowerSignal& signal, Hours duration) {
  HPC_REQUIRE(duration.count() > 0, "duration must be positive");
  hw::MeterOptions mopts;
  mopts.sample_interval = opts_.sample_interval;
  hw::EnergyMeter meter(mopts);

  // Integrate energy and carbon together, hour-aligned so each joule is
  // priced at the carbon intensity of the hour it was consumed in.
  double grams = 0;
  double facility_kwh = 0;
  double t = 0;
  const double step = opts_.sample_interval.count();
  double prev_w = signal(Hours::hours(0)).to_watts();
  meter.record(Power::watts(prev_w), Hours::hours(0));
  while (t < duration.count()) {
    const double dt = std::min(step, duration.count() - t);
    const double w = signal(Hours::hours(t + dt)).to_watts();
    const double avg_kw = 0.5 * (prev_w + w) / 1000.0;
    // Price the interval at its midpoint hour so accumulated floating-point
    // drift in `t` cannot push a sample across an hour boundary.
    const HourOfYear hour = start_.shifted(static_cast<int>(t + 0.5 * dt));
    const double kwh = avg_kw * dt * opts_.pue.base();
    facility_kwh += kwh;
    grams += trace_->at(hour).to_g_per_kwh() * kwh;
    meter.record(Power::watts(w), Hours::hours(dt));
    prev_w = w;
    t += dt;
  }

  TrackerReport r;
  r.job_name = job_name;
  r.duration = duration;
  r.it_energy = meter.total();
  r.facility_energy = Energy::kilowatt_hours(facility_kwh);
  r.carbon = Mass::grams(grams);
  r.average_power = meter.average_power();
  r.average_intensity = facility_kwh > 0
                            ? Mass::grams(grams) /
                                  Energy::kilowatt_hours(facility_kwh)
                            : CarbonIntensity();
  return r;
}

TrackerReport Tracker::track_training(const hw::NodeConfig& node,
                                      const workload::BenchmarkModel& m,
                                      double samples, int gpus_used) {
  const double tput = hw::throughput(m, node, gpus_used);
  const Hours duration = Hours::seconds(samples / tput);
  const Power p = hw::node_training_power(node, m, gpus_used);
  return track(m.name + " on " + node.name, [p](Hours) { return p; },
               duration);
}

}  // namespace hpcarbon::op
