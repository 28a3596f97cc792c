#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace hpcarbon::stats {

namespace {

// R type-7 linear interpolation on already-sorted data: the single
// implementation behind both stats::quantile and Summary::quantile.
double quantile_sorted(std::span<const double> sorted, double p) {
  HPC_REQUIRE(!sorted.empty(), "quantile of empty range");
  HPC_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p outside [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double mean(std::span<const double> xs) {
  HPC_REQUIRE(!xs.empty(), "mean of empty range");
  double acc = 0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double cov_percent(std::span<const double> xs) {
  const double m = mean(xs);
  HPC_REQUIRE(m != 0.0, "CoV undefined for zero mean");
  // CoV is defined on |mean|: dispersion must not report as negative for
  // negative-mean series (e.g. carbon *savings* deltas).
  return 100.0 * stddev(xs) / std::abs(m);
}

double quantile(std::span<const double> xs, double p) {
  HPC_REQUIRE(!xs.empty(), "quantile of empty range");
  HPC_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p outside [0,1]");
  // Selection, not a sort: quantile_sorted reads only the order statistic
  // at lo = floor(p * (n - 1)) and the one after it. nth_element puts the
  // first in place, and the least of the elements after it is the second.
  // Equal doubles differ at most in the sign of a zero, which the
  // interpolation cannot tell apart, so the bits match a full sort's.
  std::vector<double> v(xs.begin(), xs.end());
  const auto lo = static_cast<std::size_t>(
      std::floor(p * static_cast<double>(v.size() - 1)));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  if (nth + 1 != v.end()) {
    std::iter_swap(nth + 1, std::min_element(nth + 1, v.end()));
  }
  return quantile_sorted(v, p);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary::Summary(std::span<const double> xs)
    : sorted_(xs.begin(), xs.end()) {
  finalize(xs);
}

Summary::Summary(std::vector<double>&& xs) : sorted_(std::move(xs)) {
  // Moments must see the original order (summation order changes the last
  // ulp), so accumulate before the in-place sort.
  finalize(sorted_);
}

void Summary::finalize(std::span<const double> original_order) {
  if (!original_order.empty()) mean_ = stats::mean(original_order);
  variance_ = stats::variance(original_order);
  std::sort(sorted_.begin(), sorted_.end());
}

double Summary::mean() const {
  HPC_REQUIRE(!empty(), "mean of empty summary");
  return mean_;
}

double Summary::stddev() const { return std::sqrt(variance_); }

double Summary::min() const {
  HPC_REQUIRE(!empty(), "min of empty summary");
  return sorted_.front();
}

double Summary::max() const {
  HPC_REQUIRE(!empty(), "max of empty summary");
  return sorted_.back();
}

double Summary::quantile(double p) const {
  HPC_REQUIRE(!empty(), "quantile of empty summary");
  return quantile_sorted(sorted_, p);
}

BoxStats box_stats(std::span<const double> xs) {
  // One Summary instead of three quantile() calls: one sort, not three.
  const Summary s(xs);
  BoxStats b;
  b.q1 = s.quantile(0.25);
  b.median = s.quantile(0.5);
  b.q3 = s.quantile(0.75);
  b.mean = s.mean();
  b.min = s.min();
  b.max = s.max();
  const double iqr = b.q3 - b.q1;
  // Tukey whiskers: furthest data point within 1.5*IQR of the box.
  double lo_fence = b.q1 - 1.5 * iqr;
  double hi_fence = b.q3 + 1.5 * iqr;
  b.whisker_low = b.max;
  b.whisker_high = b.min;
  for (double x : xs) {
    if (x >= lo_fence && x < b.whisker_low) b.whisker_low = x;
    if (x <= hi_fence && x > b.whisker_high) b.whisker_high = x;
  }
  return b;
}

}  // namespace hpcarbon::stats
