// Bit digest of a generated job list, for pinning the job generators.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sched/job.h"

namespace hpcarbon::testutil {

/// Word-wise FNV-1a over every job's submit hour, duration and IT power
/// bit patterns and its user index: one ulp in any attribute, or two draws
/// taken in another order, changes it.
inline std::uint64_t job_digest(const std::vector<sched::Job>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3;
  };
  for (const sched::Job& j : jobs) {
    mix(std::bit_cast<std::uint64_t>(j.submit_hour));
    mix(std::bit_cast<std::uint64_t>(j.duration_hours));
    mix(std::bit_cast<std::uint64_t>(j.it_power.to_watts()));
    mix(j.user);
  }
  return h;
}

}  // namespace hpcarbon::testutil
