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
#include <optional>

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
    /// Mean intensity of each hour of the day over the trailing window.
    const std::array<double, kHoursPerDay>& hourly_template() const {
      return template_;
    }
    /// Level term added to every slot: level_blend times the last
    /// observation's deviation from its own slot.
    double level() const { return level_; }
    /// Intensity predicted at origin + horizon_hours.
    double predict(int horizon_hours) const;
    /// Mean predicted intensity over [origin + start_h, origin + start_h +
    /// duration_h), hour-granular (as Forecast::predict_window). A window
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
    // after n whole hours. Both are built with the outlook and rebuilt on
    // every one-hour step (the level moves every hour), so they are never
    // stale and never partly filled.
    std::array<double, kSummedHours> hour_pred_{};
    std::array<double, kSummedHours + 1> window_sum_{};
  };

  DiurnalTemplateForecast(const CarbonIntensityTrace& trace,
                          int window_days = 14, double level_blend = 0.3);
  /// The forecast made at `origin`; O(window_days * 24).
  Outlook outlook(HourOfYear origin) const;
  /// The forecast made at `origin`, kept in this forecast until the next
  /// call: a scheduler asks at one origin many times, then one hour later.
  /// The same origin returns the kept outlook. The next hour re-reads one
  /// template slot (`window_days` samples) and the level sample: moving
  /// the origin from o to o + 1 adds hour o to the trailing window and
  /// drops hour o - 24 * window_days, and both fall in hour o's slot, so
  /// the other 23 slots keep the same samples summed in the same order.
  /// The step then rebuilds the running window sum (kSummedHours
  /// predictions), because the level moves every hour. Any other origin
  /// rebuilds in full. Answers are bit-identical to outlook(origin); the
  /// reference is valid until the next call.
  const Outlook& outlook_at(HourOfYear origin);
  double predict(HourOfYear origin, int horizon_hours) const override;

 private:
  /// Mean of the trailing window's samples in hour-of-day `slot` before
  /// `origin`, summed most recent first. The full build and the one-hour
  /// step both fill slots through it, so the two cannot drift apart.
  double slot_mean(HourOfYear origin, int slot) const;
  /// Set `outlook.level_` from its template and the last observation, then
  /// the running window sum, which reads both. The full build and the
  /// one-hour step both end here, so neither leaves a stale sum.
  void finish(Outlook& outlook) const;

  const CarbonIntensityTrace* trace_;
  int window_days_;
  double level_blend_;
  std::optional<Outlook> kept_;  // outlook_at's last answer
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
