// Resolution-agnostic piecewise-constant time series.
//
// The paper's operational pipeline runs on Electricity Maps exports, which
// ship at 5-minute or 15-minute cadence depending on the zone — but hourly
// data, synthetic traces, and PUE-weighted integrands all share the same
// shape: a periodic sequence of samples, each constant over one fixed step.
// StepSeries is that shape, factored out of the old hour-locked
// grid::HourlyPrefixSum so every consumer (trace integrals, Eq. 6
// integration, the scheduler's per-site carbon pricing) works at any
// resolution.
//
// Semantics:
//  * values()[i] applies over [i * step, (i+1) * step) seconds; the series
//    is periodic with period size() * step (one modeled year for traces).
//  * integral(start, duration) is the exact integral of that step function
//    in value·hours, O(1) via prefix sums: fractional endpoints weight the
//    stored sample directly (a prefix difference would reintroduce one ulp
//    of rounding per endpoint), starts wrap modulo the period (negative
//    starts wrap backwards), and durations may exceed any number of periods.
//  * With step_seconds == 3600 every code path reduces bit-identically to
//    the old hourly prefix sum: step_hours() is exactly 1.0, so the
//    index arithmetic (x / 1.0) and weights (w * 1.0) are unchanged
//    floating-point operations. Golden-parity tests assert this.
//  * integral_ticks(start, duration) takes the interval on the tick clock
//    of core/time.h (1/1024 h) and equals integral(start / 1024.0,
//    duration / 1024.0) bit for bit, for every series. When one sample
//    spans a power-of-two number of ticks (1024 hourly, 512 for 30-minute,
//    256 for 15-minute samples, 2048 for 2-hour ones), the constructor
//    picks a shift-and-mask path: the sample index is `tick >> shift`,
//    the in-sample fraction is `tick & mask` scaled by an exact power of
//    two, and the wrap and whole periods are integer arithmetic. Every
//    operand integral() forms from the same interval is then the same
//    exact double, and the float expressions run in the same order, so
//    the bits match. Any other step (a 5-minute sample is 85 1/3 ticks)
//    delegates to integral(), and so do ticks of 2^52 or more in
//    magnitude (about 500 million years), where hours_of rounds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/time.h"

namespace hpcarbon {

inline constexpr double kSecondsPerHour = 3600.0;

class StepSeries {
 public:
  StepSeries() = default;
  /// values[i] applies over [i*step_seconds, (i+1)*step_seconds); the
  /// series repeats with period values.size() * step_seconds. Values must
  /// be finite; step must be positive and finite.
  StepSeries(std::vector<double> values, double step_seconds);

  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }
  double step_seconds() const { return step_seconds_; }
  /// Step expressed in hours (exactly 1.0 for hourly series).
  double step_hours() const { return step_hours_; }
  /// One full period, in hours (exactly 8760.0 for an hourly year).
  double period_hours() const { return period_hours_; }
  const std::vector<double>& values() const { return values_; }

  /// Integral of the series over one full period, value·hours.
  double total() const { return prefix_.empty() ? 0.0 : prefix_.back(); }

  /// Index of the sample containing the instant `hours` (wrapped into the
  /// period; negative values wrap backwards).
  std::size_t index_at_hours(double hours) const;
  /// Point sample at the instant `hours` (wrapped).
  double at_hours(double hours) const { return values_[index_at_hours(hours)]; }

  /// Integral over [start_hours, start_hours + duration_hours), value·hours.
  /// `start_hours` may be any finite value (wrapped into the period) and
  /// the duration may span period boundaries or exceed whole periods. O(1).
  double integral(double start_hours, double duration_hours) const;
  /// integral(hours_of(start), hours_of(duration)), bit for bit: the
  /// integral over an interval on the tick clock (1/1024 h), value·hours.
  /// Negative starts wrap backwards; the duration must be non-negative.
  /// O(1), and about twice as fast as integral() when one sample spans a
  /// power-of-two number of ticks (see the file comment).
  double integral_ticks(Tick start, Tick duration) const;

  /// Mean-preserving resample onto a new step. The new step must divide the
  /// period evenly. Downsampling averages the covered samples (via the
  /// prefix sums); upsampling replicates each sample piecewise-constantly.
  StepSeries resampled(double new_step_seconds) const;

  /// Copy with values rotated so that rotated[i] = values[(i + steps) mod
  /// size] — the sample-level shift behind time-zone re-alignment.
  StepSeries rotated(long steps) const;

 private:
  /// `hours` (finite) wrapped into the period, as std::fmod plus one
  /// period for negative remainders. The result lies in [0, period], the
  /// top only when a tiny negative remainder rounds up to the period.
  double wrapped(double hours) const;
  /// Cumulative integral from 0 to `hours` in [0, period_hours], value·hours.
  double cumulative(double hours) const;
  /// cumulative(hours_of(tick)) for `tick` in [0, period_ticks_], on the
  /// shift-and-mask path.
  double cumulative_ticks(Tick tick) const;

  std::vector<double> values_;
  std::vector<double> prefix_;  // size()+1; prefix_[i] = integral of first i
  double step_seconds_ = 0.0;
  double step_hours_ = 0.0;
  double period_hours_ = 0.0;
  // The shift-and-mask path, set by the constructor when one sample spans
  // 2^tick_shift_ ticks; tick_shift_ < 0 sends integral_ticks to integral.
  int tick_shift_ = -1;
  Tick tick_mask_ = 0;        // 2^tick_shift_ - 1
  double tick_scale_ = 0.0;   // 2^-tick_shift_, exact
  Tick period_ticks_ = 0;     // size() << tick_shift_
};

}  // namespace hpcarbon
