// Descriptive statistics: the box plots and coefficient of variation of
// the regional carbon-intensity analysis (Fig. 6), the mean and p95 wait
// of a scheduling run, trace medians, and the one-sort Summary behind
// every Monte-Carlo mc::Distribution.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hpcarbon::stats {

double mean(std::span<const double> xs);
/// Sample variance (n-1 denominator); 0 for fewer than two samples.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);

/// Coefficient of variation as a percentage: 100 * stddev / mean.
/// This is exactly the metric of Fig. 6(b).
double cov_percent(std::span<const double> xs);

/// Linear-interpolation quantile (R type-7, the matplotlib/numpy default the
/// paper's box plots were drawn with). p in [0,1]. O(n): selects the two
/// order statistics it needs from a copy instead of sorting it.
double quantile(std::span<const double> xs, double p);
double median(std::span<const double> xs);

/// One-sort descriptive summary of a sample.
///
/// The free functions above each rescan (and `quantile` copies) their
/// input per call, which is fine for one-off figures but quadratic-feeling
/// in summarization loops: the Monte-Carlo layer asks for mean, stddev,
/// and several quantiles of the same vector. Summary pays one pass for the
/// moments plus one sort at construction; every quantile afterwards is an
/// O(1) interpolation on the sorted data. Moments are accumulated over the
/// input order (before sorting), so mean()/stddev() are bit-identical to
/// the free functions on the same span.
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::span<const double> xs);
  /// Takes ownership of the buffer (sorted in place; no copy).
  explicit Summary(std::vector<double>&& xs);

  std::size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  double mean() const;
  double stddev() const;  // sample standard deviation, n-1 denominator
  double min() const;
  double max() const;

  /// R type-7 linear-interpolation quantile on the pre-sorted data; p in
  /// [0,1]. Matches stats::quantile exactly, without the per-call copy.
  double quantile(double p) const;
  double median() const { return quantile(0.5); }

  /// The samples in ascending order.
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  void finalize(std::span<const double> original_order);

  std::vector<double> sorted_;
  double mean_ = 0;
  double variance_ = 0;
};

/// Five-number summary plus Tukey whiskers (1.5 IQR clamped to data range),
/// i.e. the geometry of one box in Fig. 6(a).
struct BoxStats {
  double whisker_low = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double whisker_high = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
};
BoxStats box_stats(std::span<const double> xs);

}  // namespace hpcarbon::stats
