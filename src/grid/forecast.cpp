#include "grid/forecast.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace hpcarbon::grid {

namespace {

/// `acc` plus `predict(h)` over [h, h + remaining), whole hours weighted 1
/// and a trailing partial hour by its fraction, added in hour order.
template <typename PredictHour>
double add_window(double acc, int h, double remaining, PredictHour predict) {
  while (remaining > 0) {
    const double w = remaining >= 1.0 ? 1.0 : remaining;
    acc += predict(h) * w;
    remaining -= w;
    ++h;
  }
  return acc;
}

}  // namespace

double Forecast::predict_window(HourOfYear origin, int start_h,
                                double duration_h) const {
  HPC_REQUIRE(duration_h > 0, "window duration must be positive");
  return add_window(0.0, start_h, duration_h,
                    [&](int h) { return predict(origin, h); }) /
         duration_h;
}

PersistenceForecast::PersistenceForecast(const CarbonIntensityTrace& trace)
    : trace_(&trace) {}

double PersistenceForecast::predict(HourOfYear origin,
                                    int /*horizon_hours*/) const {
  return trace_->at(origin.shifted(-1)).to_g_per_kwh();
}

DiurnalTemplateForecast::DiurnalTemplateForecast(
    const CarbonIntensityTrace& trace, int window_days, double level_blend)
    : level_blend_(level_blend),
      observed_(kHoursPerYear),
      trailing_mean_(kHoursPerYear, 0.0) {
  HPC_REQUIRE(window_days >= 1, "window must cover at least one day");
  HPC_REQUIRE(level_blend_ >= 0.0 && level_blend_ <= 1.0,
              "level blend must be in [0,1]");
  for (int h = 0; h < kHoursPerYear; ++h) {
    observed_[static_cast<std::size_t>(h)] =
        trace.at(HourOfYear(h)).to_g_per_kwh();
  }
  // Pass `day` adds to every hour h the sample `day` days before it, so
  // each hour's sum takes its samples most recent first. The year has
  // whole days, so wrapping keeps every sample in its hour-of-day.
  const auto year = static_cast<std::size_t>(kHoursPerYear);
  const auto day_hours = static_cast<std::size_t>(kHoursPerDay);
  for (int day = 0; day < window_days; ++day) {
    const std::size_t back = static_cast<std::size_t>(day) * day_hours % year;
    for (std::size_t h = 0; h < back; ++h) {
      trailing_mean_[h] += observed_[h + year - back];
    }
    for (std::size_t h = back; h < year; ++h) {
      trailing_mean_[h] += observed_[h - back];
    }
  }
  for (double& sum : trailing_mean_) sum /= window_days;
}

DiurnalTemplateForecast::Outlook DiurnalTemplateForecast::outlook(
    HourOfYear origin) const {
  Outlook outlook;
  outlook.origin_ = origin;
  // The 24 hours before the origin hold one hour of each slot, each the
  // most recent of its slot: its trailing mean is that slot's template.
  for (int back = 1; back <= kHoursPerDay; ++back) {
    const HourOfYear h = origin.shifted(-back);
    outlook.template_[static_cast<std::size_t>(h.hour_of_day())] =
        trailing_mean_[static_cast<std::size_t>(h.index())];
  }
  // Level correction: shift toward the latest observation's deviation from
  // its own template slot (persistence of the weather regime).
  const HourOfYear last = origin.shifted(-1);
  const double last_dev =
      observed_[static_cast<std::size_t>(last.index())] -
      outlook.template_[static_cast<std::size_t>(last.hour_of_day())];
  outlook.level_ = level_blend_ * last_dev;
  // The hourly predictions and their running sum read the template and
  // the level, so they come last; each sum is the window loop's
  // accumulator after that many hours. Hour h ahead falls in slot
  // (origin's slot + h) mod 24, as in predict.
  int slot = origin.hour_of_day();
  for (std::size_t h = 0; h < Outlook::kSummedHours; ++h) {
    outlook.hour_pred_[h] = outlook.slot_prediction(slot);
    outlook.window_sum_[h + 1] = outlook.window_sum_[h] + outlook.hour_pred_[h];
    slot = slot + 1 == kHoursPerDay ? 0 : slot + 1;
  }
  return outlook;
}

double DiurnalTemplateForecast::Outlook::slot_prediction(int slot) const {
  return std::max(0.0, template_[static_cast<std::size_t>(slot)] + level_);
}

double DiurnalTemplateForecast::Outlook::predict(int horizon_hours) const {
  return slot_prediction(origin_.shifted(horizon_hours).hour_of_day());
}

double DiurnalTemplateForecast::Outlook::predict_window(
    int start_h, double duration_h) const {
  HPC_REQUIRE(duration_h > 0, "window duration must be positive");
  // From the origin, the first whole hours come from the running sum: the
  // loop would add the same terms in the same order, and each of its
  // `remaining -= 1.0` steps is exact, so it resumes with the same state.
  // Short of the sum's end, what remains is under an hour, which the loop
  // adds as one partial term, weighted by duration_h - k (exact), and
  // only when it is positive. duration_h > 0, so truncation is floor.
  if (start_h == 0 && duration_h < kSummedHours) {
    const auto k = static_cast<std::size_t>(duration_h);
    const double part = duration_h - static_cast<double>(k);
    double acc = window_sum_[k];
    if (part > 0) acc += hour_pred_[k] * part;
    return acc / duration_h;
  }
  const int summed = start_h != 0 ? 0 : kSummedHours;
  return add_window(window_sum_[static_cast<std::size_t>(summed)],
                    start_h + summed, duration_h - summed,
                    [this](int h) { return predict(h); }) /
         duration_h;
}

double DiurnalTemplateForecast::predict(HourOfYear origin,
                                        int horizon_hours) const {
  return outlook(origin).predict(horizon_hours);
}

ForecastSkill evaluate(const Forecast& forecast,
                       const CarbonIntensityTrace& truth, int horizon_hours,
                       int start_hour) {
  HPC_REQUIRE(horizon_hours >= 0, "horizon must be non-negative");
  HPC_REQUIRE(start_hour >= 0 && start_hour < kHoursPerYear,
              "start hour out of range");
  double abs_err = 0;
  double ape = 0;
  int n = 0;
  for (int h = start_hour; h + horizon_hours < kHoursPerYear; ++h) {
    const HourOfYear origin(h);
    const double pred = forecast.predict(origin, horizon_hours);
    const double actual =
        truth.at(origin.shifted(horizon_hours)).to_g_per_kwh();
    abs_err += std::fabs(pred - actual);
    if (actual > 0) ape += std::fabs(pred - actual) / actual;
    ++n;
  }
  ForecastSkill s;
  if (n > 0) {
    s.mae = abs_err / n;
    s.mape_percent = 100.0 * ape / n;
  }
  return s;
}

}  // namespace hpcarbon::grid
