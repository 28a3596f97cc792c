#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double sliced_percentile(const std::vector<double>& samples, double p,
                         std::size_t slices) {
  const std::size_t n = samples.size();
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(k * n / slices);
    const auto end =
        samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / slices);
    if (begin != end) per_slice.push_back(percentile({begin, end}, p));
  }
  return median(per_slice);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
