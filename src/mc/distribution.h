// Distribution: the summary type every Monte-Carlo API returns.
//
// The paper's Threats-to-Validity section argues that yield, per-area
// emission factors, EPC, and grid carbon intensity are all uncertain, so a
// single number is the wrong shape for any derived answer. A Distribution
// wraps the empirical sample set produced by mc::Engine and answers what
// reports read (mean, stddev, arbitrary quantiles, the sorted samples)
// with one sort paid at construction (stats::Summary) instead of a sort
// per query.
#pragma once

#include <vector>

#include "core/stats.h"

namespace hpcarbon::mc {

class Distribution {
 public:
  Distribution() = default;
  /// Takes ownership of the samples; one sort, no copy.
  explicit Distribution(std::vector<double> samples)
      : summary_(std::move(samples)) {}

  int samples() const { return static_cast<int>(summary_.count()); }
  bool empty() const { return summary_.empty(); }

  double mean() const { return summary_.mean(); }
  double stddev() const { return summary_.stddev(); }

  /// R type-7 interpolated quantile; p in [0,1]. O(1) after construction.
  double quantile(double p) const { return summary_.quantile(p); }
  double p05() const { return quantile(0.05); }
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }

  /// The samples in ascending order.
  const std::vector<double>& sorted() const { return summary_.sorted(); }

 private:
  stats::Summary summary_;
};

}  // namespace hpcarbon::mc
