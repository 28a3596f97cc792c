#include "calib.h"

#include <sched.h>

#include "rng.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int kIterations = 100000;
constexpr std::uint32_t kTableMask = (1u << 14) - 1;

volatile double g_sink;

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  sched_getaffinity(0, sizeof set, &set);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

HostProbe::HostProbe() : table_(kTableMask + 1) {
  Prng rng(0x50B3);
  for (auto& v : table_) v = static_cast<std::uint32_t>(rng.next());
}

double HostProbe::once() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0;
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table_[x & kTableMask] * 1e-9;
    if (x & 1) acc *= 0.999999;  // a branch taken half the time, at random
  }
  g_sink = acc;
  return seconds_since(t0);
}

double HostProbe::seconds() {
  std::vector<double> t = {once(), once(), once()};
  return median(t);
}

double HostProbe::seconds_across(const std::vector<int>& cpus) {
  double sum = 0;
  for (int c : cpus) {
    pin_to(c);
    sum += seconds();
  }
  return cpus.empty() ? seconds() : sum / static_cast<double>(cpus.size());
}

}  // namespace perfbench
