#include "grid/simulator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"

namespace hpcarbon::grid {

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

// Smooth single-peak diurnal shape centered on peak_hour, range [-1, 1].
double diurnal(int hour_of_day, int peak_hour) {
  return std::cos(kTwoPi * (hour_of_day - peak_hour) / kHoursPerDay);
}

// Seasonal shape with peak at peak_day, range [-1, 1].
double seasonal(int day_of_year, int peak_day) {
  return std::cos(kTwoPi * (day_of_year - peak_day) / kDaysPerYear);
}

// The terms of the solar shape that depend on the day alone. Half-width
// of the daylight window varies with season (longer summer days in the
// mid-latitudes all seven regions occupy).
struct SolarDay {
  double halfwidth;
  double season;  // irradiance scale: summer peak (day 172)
};

SolarDay solar_day(int day_of_year) {
  return {6.0 + 1.8 * std::sin(kTwoPi * (day_of_year - 81) / kDaysPerYear),
          1.0 + 0.45 * std::cos(kTwoPi * (day_of_year - 172) / kDaysPerYear)};
}

// Daylight availability: zero at night, cosine-shaped around solar noon.
double solar_shape(int hour_of_day, const SolarDay& day) {
  const double x = (hour_of_day - 12.0) / day.halfwidth;
  if (std::fabs(x) >= 1.0) return 0.0;
  const double c = std::cos(x * kTwoPi / 4.0);  // cos(pi/2 * x)
  return std::pow(c, 1.3) * day.season * 0.5;
}

using DayShape = std::array<double, kHoursPerDay>;

/// The year in one pass: calls visit(demand, generation, imports, ci) for
/// each local hour in order. `generation` (parallel to spec.sources) is
/// one buffer rewritten every hour, so the pass allocates nothing per
/// hour. Diurnal shapes are tabled per hour of day and the seasonal and
/// solar-day terms computed once per day; each is the value the hourly
/// expression gives, so tabling moves no bit.
template <typename Visit>
void simulate(const RegionSpec& spec, Visit&& visit) {
  Rng rng(spec.seed);
  Ar1 demand_noise(spec.demand_noise_rho, rng);

  // One weather process per source, drawn in source order (wind gets the
  // persistence of multi-day weather systems; solar's process models cloud
  // cover), and each source's wind factor 1 + amp * diurnal by hour of day.
  const std::size_t n = spec.sources.size();
  std::vector<Ar1> weather;
  weather.reserve(n);
  std::vector<DayShape> wind_diurnal(n);
  DayShape demand_diurnal;
  for (int hod = 0; hod < kHoursPerDay; ++hod) {
    demand_diurnal[hod] = diurnal(hod, spec.demand_peak_hour);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = spec.sources[i];
    weather.emplace_back(s.weather_rho, rng);
    for (int hod = 0; hod < kHoursPerDay; ++hod) {
      wind_diurnal[i][hod] =
          1.0 + s.diurnal_amp * diurnal(hod, s.diurnal_peak_hour);
    }
  }
  std::vector<double> generation(n);

  for (int doy = 0; doy < kDaysPerYear; ++doy) {
    const double demand_seasonal = seasonal(doy, spec.demand_peak_day);
    const SolarDay sun = solar_day(doy);
    for (int hod = 0; hod < kHoursPerDay; ++hod) {
      double demand = 1.0 + spec.demand_diurnal_amp * demand_diurnal[hod] +
                      spec.demand_seasonal_amp * demand_seasonal +
                      spec.demand_noise * demand_noise.step();
      demand = std::max(0.2, demand);

      double remaining = demand;
      double weighted_ci = 0;
      std::fill(generation.begin(), generation.end(), 0.0);

      for (std::size_t i = 0; i < n; ++i) {
        const auto& s = spec.sources[i];
        double w = weather[i].step();  // advance every hour regardless
        double available;
        switch (s.type) {
          case SourceType::kWind: {
            // Lognormal weather state keeps availability positive and
            // skewed; optional diurnal shape (e.g. nocturnal Texas wind).
            double cf = s.capacity_factor *
                        std::exp(s.volatility * w -
                                 0.5 * s.volatility * s.volatility);
            cf *= wind_diurnal[i][hod];
            available = s.capacity * std::clamp(cf, 0.0, 0.97);
            break;
          }
          case SourceType::kSolar: {
            const double clouds = std::clamp(
                1.0 - 0.5 * std::max(0.0, w * s.volatility), 0.25, 1.0);
            available = s.capacity * s.capacity_factor *
                        solar_shape(hod, sun) * clouds * 2.0;
            break;
          }
          default:
            available = s.capacity * s.capacity_factor;
            break;
        }
        const double gen = std::min(available, remaining);
        generation[i] = gen;
        remaining -= gen;
        weighted_ci += gen * lifecycle_ci(s.type);
        if (remaining <= 0) {
          remaining = 0;
          // Keep advancing the remaining weather processes for continuity.
          for (std::size_t j = i + 1; j < n; ++j) weather[j].step();
          break;
        }
      }

      weighted_ci += remaining * lifecycle_ci(SourceType::kImports);
      visit(demand, generation, remaining, weighted_ci / demand);
    }
  }
}

}  // namespace

GridSimulator::GridSimulator(RegionSpec spec) : spec_(std::move(spec)) {
  HPC_REQUIRE(!spec_.sources.empty(), "region has no generation sources");
  double total_capacity = 0;
  for (const auto& s : spec_.sources) {
    HPC_REQUIRE(s.capacity >= 0, "negative capacity");
    HPC_REQUIRE(s.capacity_factor >= 0 && s.capacity_factor <= 1.0,
                "capacity factor outside [0,1]");
    total_capacity += s.capacity;
  }
  HPC_REQUIRE(total_capacity > 0, "region has zero total capacity");
}

std::vector<DispatchHour> GridSimulator::run_detailed() const {
  std::vector<DispatchHour> hours;
  hours.reserve(kHoursPerYear);
  simulate(spec_, [&](double demand, const std::vector<double>& generation,
                      double imports, double ci) {
    hours.push_back(DispatchHour{demand, imports, generation, ci});
  });
  return hours;
}

CarbonIntensityTrace GridSimulator::run() const {
  std::vector<double> values;
  values.reserve(kHoursPerYear);
  simulate(spec_, [&](double, const std::vector<double>&, double,
                      double ci) { values.push_back(ci); });
  return CarbonIntensityTrace(spec_.code, spec_.tz, std::move(values));
}

std::vector<double> GridSimulator::annual_mix() const {
  std::vector<double> energy(spec_.sources.size() + 1, 0.0);
  double total = 0;
  simulate(spec_, [&](double demand, const std::vector<double>& generation,
                      double imports, double) {
    for (std::size_t i = 0; i < generation.size(); ++i) {
      energy[i] += generation[i];
    }
    energy.back() += imports;
    total += demand;
  });
  for (auto& e : energy) e /= total;
  return energy;
}

std::vector<CarbonIntensityTrace> generate_traces(
    const std::vector<RegionSpec>& specs) {
  std::vector<CarbonIntensityTrace> traces(specs.size());
  ThreadPool::global().parallel_for(0, specs.size(), [&](std::size_t i) {
    traces[i] = GridSimulator(specs[i]).run();
  });
  return traces;
}

}  // namespace hpcarbon::grid
