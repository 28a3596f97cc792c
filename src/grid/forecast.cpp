#include "grid/forecast.h"

#include <cmath>

#include "core/error.h"

namespace hpcarbon::grid {

namespace {

/// Mean of `predict(h)` over [start_h, start_h + duration_h), whole hours
/// weighted 1 and a trailing partial hour by its fraction.
template <typename PredictHour>
double window_mean(int start_h, double duration_h, PredictHour predict) {
  HPC_REQUIRE(duration_h > 0, "window duration must be positive");
  double acc = 0;
  double remaining = duration_h;
  int h = start_h;
  while (remaining > 0) {
    const double w = remaining >= 1.0 ? 1.0 : remaining;
    acc += predict(h) * w;
    remaining -= w;
    ++h;
  }
  return acc / duration_h;
}

}  // namespace

double Forecast::predict_window(HourOfYear origin, int start_h,
                                double duration_h) const {
  return window_mean(start_h, duration_h,
                     [&](int h) { return predict(origin, h); });
}

PersistenceForecast::PersistenceForecast(const CarbonIntensityTrace& trace)
    : trace_(&trace) {}

double PersistenceForecast::predict(HourOfYear origin,
                                    int /*horizon_hours*/) const {
  return trace_->at(origin.shifted(-1)).to_g_per_kwh();
}

DiurnalTemplateForecast::DiurnalTemplateForecast(
    const CarbonIntensityTrace& trace, int window_days, double level_blend)
    : trace_(&trace), window_days_(window_days), level_blend_(level_blend) {
  HPC_REQUIRE(window_days_ >= 1, "window must cover at least one day");
  HPC_REQUIRE(level_blend_ >= 0.0 && level_blend_ <= 1.0,
              "level blend must be in [0,1]");
}

double DiurnalTemplateForecast::slot_mean(HourOfYear origin, int slot) const {
  // The most recent hour before `origin` in `slot` is `first` hours back;
  // the slot's other samples lie whole days further back. The year has
  // whole days, so wrapping keeps every sample in its slot.
  const int first =
      (origin.hour_of_day() - slot - 1 + kHoursPerDay) % kHoursPerDay + 1;
  double sum = 0;
  for (int day = 0; day < window_days_; ++day) {
    sum += trace_->at(origin.shifted(-(first + day * kHoursPerDay)))
               .to_g_per_kwh();
  }
  return sum / window_days_;
}

void DiurnalTemplateForecast::set_level(Outlook& outlook) const {
  // Level correction: shift toward the latest observation's deviation from
  // its own template slot (persistence of the weather regime).
  const HourOfYear last = outlook.origin_.shifted(-1);
  const double last_dev =
      trace_->at(last).to_g_per_kwh() -
      outlook.template_[static_cast<std::size_t>(last.hour_of_day())];
  outlook.level_ = level_blend_ * last_dev;
}

DiurnalTemplateForecast::Outlook DiurnalTemplateForecast::outlook(
    HourOfYear origin) const {
  Outlook outlook;
  outlook.origin_ = origin;
  for (int slot = 0; slot < kHoursPerDay; ++slot) {
    outlook.template_[static_cast<std::size_t>(slot)] =
        slot_mean(origin, slot);
  }
  set_level(outlook);
  return outlook;
}

const DiurnalTemplateForecast::Outlook& DiurnalTemplateForecast::outlook_at(
    HourOfYear origin) {
  if (kept_.has_value() && kept_->origin_ == origin) return *kept_;
  if (kept_.has_value() && kept_->origin_.shifted(1) == origin) {
    const int slot = kept_->origin_.hour_of_day();
    kept_->origin_ = origin;
    kept_->template_[static_cast<std::size_t>(slot)] = slot_mean(origin, slot);
    set_level(*kept_);
  } else {
    kept_ = outlook(origin);
  }
  return *kept_;
}

double DiurnalTemplateForecast::Outlook::predict(int horizon_hours) const {
  const HourOfYear target = origin_.shifted(horizon_hours);
  return std::max(
      0.0, template_[static_cast<std::size_t>(target.hour_of_day())] + level_);
}

double DiurnalTemplateForecast::Outlook::predict_window(
    int start_h, double duration_h) const {
  return window_mean(start_h, duration_h,
                     [this](int h) { return predict(h); });
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
