// Small numeric and reporting helpers shared by the workloads.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty. Takes a copy so callers keep their order.
double percentile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// The p-th percentile of each of `slices` consecutive stretches of the
/// samples, then the median across stretches: a stall of the shared host
/// that hits a minority of the stretches leaves the figure alone, a
/// slowdown in most of them moves it.
double sliced_percentile(const std::vector<double>& samples, double p,
                         std::size_t slices);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The result line the benchmark prints last: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{name:{"value":..,"unit":..}}}.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& metrics);

/// JSON number text with every significant digit of a double.
std::string json_number(double v);

}  // namespace perfbench
