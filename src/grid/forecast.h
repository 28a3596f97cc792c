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
//    window, the structure the paper's Fig. 7 analysis exploits. It
//    depends on the trace alone, so it is built once per region
//    (sched::PreparedRegion holds one), tabulated at construction, and
//    read by every run on that region.
//
// Both see only history (hours strictly before the query origin), so
// policies built on them are causally valid.
#pragma once

#include <array>
#include <vector>

#include "grid/trace.h"

namespace hpcarbon::grid {

class Forecast {
 public:
  virtual ~Forecast() = default;

  /// Predict the intensity at `origin + horizon_hours`, using only trace
  /// values strictly before `origin` (local time of the underlying trace).
  virtual double predict(HourOfYear origin, int horizon_hours) const = 0;
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
/// observation for level (bias) correction. The constructor tabulates the
/// trace once: each hour's intensity, and each hour's trailing mean (that
/// hour and the same hour on the previous window_days - 1 days). A
/// forecast is then an immutable value that owns its two tables (about
/// 140 KB), reads no trace afterwards, and can be shared by threads;
/// sched::PreparedRegion holds one per region.
class DiurnalTemplateForecast : public Forecast {
 public:
  /// The forecast made at one origin hour: the 24-slot template and the
  /// level term, read from the tables. Every prediction from one origin
  /// reads this small value, so a caller that asks many questions of one
  /// origin (a scheduler pricing sites or start offsets within a
  /// simulated hour) builds it once and reuses it. Answers are
  /// bit-identical to predict(origin, h).
  class Outlook {
   public:
    HourOfYear origin() const { return origin_; }
    /// Intensity predicted at origin + horizon_hours.
    double predict(int horizon_hours) const;
    /// Mean predicted intensity over [origin + start_h, origin + start_h +
    /// duration_h), hour-granular: predict(h) for each hour in order, whole
    /// hours weighted 1 and a trailing part hour by its fraction. A window
    /// from the origin (start_h == 0) takes its first min(floor(duration_h),
    /// kSummedHours) whole hours from the running sum, so a scheduler
    /// pricing many jobs at one origin does not re-add them per job; one
    /// shorter than kSummedHours costs one multiply-add and one divide.
    double predict_window(int start_h, double duration_h) const;

    /// Hours the running sum covers. Generated jobs run at most 96 h and
    /// their lognormal puts about 0.4% of them above 48 h.
    static constexpr int kSummedHours = 48;

   private:
    friend class DiurnalTemplateForecast;
    Outlook() = default;
    /// Intensity predicted for any hour in hour-of-day `slot`.
    double slot_prediction(int slot) const;

    HourOfYear origin_;
    std::array<double, kHoursPerDay> template_{};
    double level_ = 0;  // level_blend * (last observation - its slot)
    // hour_pred_[h] = predict(h), and window_sum_[n] = sum of predict(h)
    // for h < n, added in hour order from 0: the window loop's accumulator
    // after n whole hours. Both are built with the outlook.
    std::array<double, kSummedHours> hour_pred_{};
    std::array<double, kSummedHours + 1> window_sum_{};
  };

  /// Tabulates `trace`; O(window_days * 8760) adds, one day's samples to
  /// every hour per pass.
  DiurnalTemplateForecast(const CarbonIntensityTrace& trace,
                          int window_days = 14, double level_blend = 0.3);
  /// The forecast made at `origin`: 24 table reads, the level term and the
  /// running window sum.
  Outlook outlook(HourOfYear origin) const;
  double predict(HourOfYear origin, int horizon_hours) const override;

 private:
  double level_blend_;
  // observed_[h] = trace.at(HourOfYear(h)) in g/kWh, and trailing_mean_[h]
  // = the mean of observed_ at h, h - 24, ..., h - 24 * (window_days - 1),
  // wrapping the year, summed most recent first.
  std::vector<double> observed_;
  std::vector<double> trailing_mean_;
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
