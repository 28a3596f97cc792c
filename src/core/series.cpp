#include "core/series.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/error.h"

namespace hpcarbon {

namespace {

/// Tick magnitudes below this convert to exact hours, and so does every
/// sum of two of them that integral_ticks forms.
constexpr Tick kExactTicks = Tick{1} << 52;

}  // namespace

StepSeries::StepSeries(std::vector<double> values, double step_seconds)
    : values_(std::move(values)), step_seconds_(step_seconds) {
  HPC_REQUIRE(!values_.empty(), "series needs at least one sample");
  HPC_REQUIRE(std::isfinite(step_seconds_) && step_seconds_ > 0.0,
              "series step must be positive and finite");
  step_hours_ = step_seconds_ / kSecondsPerHour;
  // Computed as (n * step_s) / 3600 rather than n * step_hours so that any
  // step with an integral number of seconds per period gives an exact
  // period (8760.0 for hourly, 5-minute, and 15-minute years alike).
  period_hours_ =
      static_cast<double>(values_.size()) * step_seconds_ / kSecondsPerHour;
  // Two passes, deliberately: the validation sweep is branch-only and
  // vectorizes, while the prefix accumulation is a serial dependence
  // chain. Fusing them (measured via bench series) puts the isfinite
  // branch inside the chain and costs ~20% construction throughput.
  for (const double v : values_) {
    HPC_REQUIRE(std::isfinite(v), "series values must be finite");
  }
  prefix_.resize(values_.size() + 1);
  prefix_[0] = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + values_[i] * step_hours_;
  }
  // The tick path needs a sample of exactly 2^k ticks (so step_hours_ is
  // the exact power of two the shift stands for) and a period of exactly
  // size() samples that stays below kExactTicks.
  const double step_ticks = step_hours_ * static_cast<double>(kTicksPerHour);
  const double period_ticks =
      period_hours_ * static_cast<double>(kTicksPerHour);
  if (step_ticks >= 1.0 && period_ticks < static_cast<double>(kExactTicks) &&
      period_hours_ == static_cast<double>(values_.size()) * step_hours_) {
    const auto ticks = static_cast<std::uint64_t>(step_ticks);
    if (static_cast<double>(ticks) == step_ticks &&
        std::has_single_bit(ticks)) {
      tick_shift_ = std::countr_zero(ticks);
      tick_mask_ = static_cast<Tick>(ticks) - 1;
      tick_scale_ = 1.0 / step_ticks;
      period_ticks_ = static_cast<Tick>(period_ticks);
    }
  }
}

double StepSeries::wrapped(double hours) const {
  // fmod returns an argument already in [0, period) unchanged, so only
  // instants outside that range pay for it (-0.0 stays -0.0 either way).
  if (hours >= 0.0 && hours < period_hours_) return hours;
  double h = std::fmod(hours, period_hours_);
  if (h < 0.0) h += period_hours_;
  return h;
}

std::size_t StepSeries::index_at_hours(double hours) const {
  HPC_REQUIRE(!empty(), "lookup on an empty series");
  HPC_REQUIRE(std::isfinite(hours), "lookup instant must be finite");
  const double h = wrapped(hours);
  auto i = static_cast<std::size_t>(h / step_hours_);
  // Floating-point division can land exactly on size() when h is within one
  // ulp of the period; clamp to the final sample.
  return i < values_.size() ? i : values_.size() - 1;
}

double StepSeries::cumulative(double hours) const {
  const double pos = hours / step_hours_;
  auto i = static_cast<std::size_t>(pos);  // pos >= 0 by contract
  if (i >= values_.size()) return prefix_.back();
  const double frac = pos - static_cast<double>(i);
  double c = prefix_[i];
  if (frac > 0.0) c += values_[i] * frac * step_hours_;
  return c;
}

double StepSeries::integral(double start_hours, double duration_hours) const {
  HPC_REQUIRE(!empty(), "integral over an empty series");
  HPC_REQUIRE(std::isfinite(start_hours) && std::isfinite(duration_hours) &&
                  duration_hours >= 0.0,
              "interval must be finite with non-negative duration");
  const double s = wrapped(start_hours);
  const double full_periods = std::floor(duration_hours / period_hours_);
  const double d = duration_hours - full_periods * period_hours_;
  double acc = full_periods * prefix_.back();
  const double e = s + d;
  if (e <= period_hours_) {
    acc += cumulative(e) - cumulative(s);
  } else {
    acc += (prefix_.back() - cumulative(s)) + cumulative(e - period_hours_);
  }
  return acc;
}

double StepSeries::cumulative_ticks(Tick tick) const {
  // cumulative(): pos = tick / 2^k exactly, so its whole part is the
  // shift and its fraction (pos - i, exact) is the mask times 2^-k.
  const auto i = static_cast<std::size_t>(tick >> tick_shift_);
  if (i >= values_.size()) return prefix_.back();
  const double frac = static_cast<double>(tick & tick_mask_) * tick_scale_;
  double c = prefix_[i];
  if (frac > 0.0) c += values_[i] * frac * step_hours_;
  return c;
}

double StepSeries::integral_ticks(Tick start, Tick duration) const {
  HPC_REQUIRE(duration >= 0, "interval must have a non-negative duration");
  if (tick_shift_ < 0 || duration >= kExactTicks || start >= kExactTicks ||
      start <= -kExactTicks) {
    return integral(hours_of(start), hours_of(duration));
  }
  // integral()'s steps on exact operands: wrapped() is the remainder
  // (fmod is exact), floor(d / period) is the integer quotient (the
  // double quotient cannot round up to the next whole number below
  // 2^53), and e = s + d needs no rounding.
  Tick s = start;
  if (s < 0 || s >= period_ticks_) {
    s %= period_ticks_;
    if (s < 0) s += period_ticks_;
  }
  Tick full_periods = 0;
  Tick d = duration;
  if (d >= period_ticks_) {
    full_periods = d / period_ticks_;
    d -= full_periods * period_ticks_;
  }
  double acc = static_cast<double>(full_periods) * prefix_.back();
  const Tick e = s + d;
  if (e <= period_ticks_) {
    acc += cumulative_ticks(e) - cumulative_ticks(s);
  } else {
    acc += (prefix_.back() - cumulative_ticks(s)) +
           cumulative_ticks(e - period_ticks_);
  }
  return acc;
}

StepSeries StepSeries::resampled(double new_step_seconds) const {
  HPC_REQUIRE(!empty(), "resample of an empty series");
  HPC_REQUIRE(std::isfinite(new_step_seconds) && new_step_seconds > 0.0,
              "resample step must be positive and finite");
  const double period_seconds =
      static_cast<double>(values_.size()) * step_seconds_;
  const double count = period_seconds / new_step_seconds;
  const auto n = static_cast<std::size_t>(std::llround(count));
  HPC_REQUIRE(n > 0 && std::abs(count - static_cast<double>(n)) < 1e-9,
              "resample step must divide the series period evenly");
  if (n == values_.size()) return *this;
  const double new_step_hours = new_step_seconds / kSecondsPerHour;
  std::vector<double> out(n);
  // Integer decimation (the common import path: 5-minute data -> hourly)
  // reads the prefix sums directly — no fmod/floor per cell. Same
  // mean-preserving quantity as the general path (an exact prefix
  // difference instead of two cumulative() endpoint evaluations; equal to
  // within one ulp of rounding per endpoint).
  const double factor = new_step_seconds / step_seconds_;
  const auto k = static_cast<std::size_t>(std::llround(factor));
  if (k > 1 && std::abs(factor - static_cast<double>(k)) < 1e-9 &&
      values_.size() == n * k) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = (prefix_[(i + 1) * k] - prefix_[i * k]) / new_step_hours;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = integral(static_cast<double>(i) * new_step_hours,
                        new_step_hours) /
               new_step_hours;
    }
  }
  return StepSeries(std::move(out), new_step_seconds);
}

StepSeries StepSeries::rotated(long steps) const {
  HPC_REQUIRE(!empty(), "rotate of an empty series");
  const auto n = static_cast<long>(values_.size());
  long shift = steps % n;
  if (shift < 0) shift += n;
  // Two bulk copies instead of a per-element modulo.
  std::vector<double> out;
  out.reserve(values_.size());
  const auto s = static_cast<std::size_t>(shift);
  out.insert(out.end(), values_.begin() + static_cast<std::ptrdiff_t>(s),
             values_.end());
  out.insert(out.end(), values_.begin(),
             values_.begin() + static_cast<std::ptrdiff_t>(s));
  return StepSeries(std::move(out), step_seconds_);
}

}  // namespace hpcarbon
