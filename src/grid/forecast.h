// Carbon-intensity forecasting.
//
// The paper's Sec. 4 implication — "robust system software support for
// real-time and automatic distribution of jobs is needed" — requires
// schedulers to anticipate intensity, not just observe it (the UK ESO API
// the paper cites ships 48-hour forecasts for exactly this reason). Two
// standard baselines are provided:
//
//  * PersistenceForecast  — CI(t+h) = CI(t); the strawman.
//  * DiurnalTemplateForecast — hour-of-day template from the trailing
//    window, the structure the paper's Fig. 7 analysis exploits.
//
// Both see only history (hours strictly before the query origin), so
// policies built on them are causally valid.
#pragma once

#include <array>
#include <memory>

#include "grid/trace.h"

namespace hpcarbon::grid {

class Forecast {
 public:
  virtual ~Forecast() = default;

  /// Predict the intensity at `origin + horizon_hours`, using only trace
  /// values strictly before `origin` (local time of the underlying trace).
  virtual double predict(HourOfYear origin, int horizon_hours) const = 0;

  /// Mean predicted intensity over [origin + start_h, origin + start_h +
  /// duration_h), hour-granular.
  double predict_window(HourOfYear origin, int start_h,
                        double duration_h) const;
};

/// CI(t+h) = CI(t-1): last observed value everywhere.
class PersistenceForecast : public Forecast {
 public:
  explicit PersistenceForecast(const CarbonIntensityTrace& trace);
  double predict(HourOfYear origin, int horizon_hours) const override;

 private:
  const CarbonIntensityTrace* trace_;
};

/// Hour-of-day mean over the trailing `window_days`, blended with the last
/// observation for level (bias) correction.
class DiurnalTemplateForecast : public Forecast {
 public:
  /// The forecast made at one origin hour: the 24-slot template and the
  /// level term, built once from `window_days * 24` trace samples. Every
  /// prediction from one origin reads this small value, so a caller that
  /// asks many questions of one origin (a scheduler pricing sites or start
  /// offsets within a simulated hour) builds it once and reuses it.
  /// Answers are bit-identical to predict(origin, h) / predict_window.
  class Outlook {
   public:
    HourOfYear origin() const { return origin_; }
    /// Intensity predicted at origin + horizon_hours.
    double predict(int horizon_hours) const;
    /// Mean predicted intensity over [origin + start_h, origin + start_h +
    /// duration_h), hour-granular (as Forecast::predict_window).
    double predict_window(int start_h, double duration_h) const;

   private:
    friend class DiurnalTemplateForecast;
    Outlook() = default;

    HourOfYear origin_;
    std::array<double, kHoursPerDay> template_{};
    double level_ = 0;  // level_blend * (last observation - its slot)
  };

  DiurnalTemplateForecast(const CarbonIntensityTrace& trace,
                          int window_days = 14, double level_blend = 0.3);
  /// The forecast made at `origin`; O(window_days * 24).
  Outlook outlook(HourOfYear origin) const;
  double predict(HourOfYear origin, int horizon_hours) const override;

 private:
  const CarbonIntensityTrace* trace_;
  int window_days_;
  double level_blend_;
};

/// Forecast accuracy over a year at a fixed horizon.
struct ForecastSkill {
  double mae = 0;          // mean absolute error, g/kWh
  double mape_percent = 0; // mean absolute percentage error
};
ForecastSkill evaluate(const Forecast& forecast,
                       const CarbonIntensityTrace& truth, int horizon_hours,
                       int start_hour = 14 * kHoursPerDay);

}  // namespace hpcarbon::grid
