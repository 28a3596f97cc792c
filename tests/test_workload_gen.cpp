#include "sched/workload_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/error.h"
#include "job_digest.h"

namespace hpcarbon::sched {
namespace {

TEST(WorkloadGen, DeterministicForSeed) {
  WorkloadParams p;
  const auto a = generate_jobs(p);
  const auto b = generate_jobs(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].submit_hour, b[i].submit_hour);
    EXPECT_DOUBLE_EQ(a[i].duration_hours, b[i].duration_hours);
  }
}

// Every generated job, bit for bit: end answers cover the generator only
// several steps removed. A mismatch prints the digest of the build under
// test.
TEST(WorkloadGen, GeneratedJobsKeepTheirBitPatterns) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t jobs;
    std::uint64_t digest;
  };
  constexpr Pinned kPinned[] = {
      {2024, 2699, 0x2d8876f970a20852},
      {7, 2659, 0xb6c1c62ccddea8d0},
  };
  for (const Pinned& pin : kPinned) {
    WorkloadParams p;
    p.seed = pin.seed;
    const auto jobs = generate_jobs(p);
    const std::uint64_t digest = testutil::job_digest(jobs);
    EXPECT_EQ(jobs.size(), pin.jobs) << "seed " << pin.seed;
    EXPECT_EQ(digest, pin.digest)
        << "seed " << pin.seed << " digest 0x" << std::hex << digest;
  }
}

TEST(WorkloadGen, ArrivalsSortedWithinHorizon) {
  WorkloadParams p;
  p.horizon_hours = 100;
  const auto jobs = generate_jobs(p);
  ASSERT_FALSE(jobs.empty());
  double prev = 0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.submit_hour, prev);
    EXPECT_LT(j.submit_hour, p.horizon_hours);
    prev = j.submit_hour;
  }
}

TEST(WorkloadGen, ArrivalRateApproximatelyPoisson) {
  WorkloadParams p;
  p.horizon_hours = 24.0 * 365;
  p.arrival_rate_per_hour = 2.0;
  const auto jobs = generate_jobs(p);
  const double rate = static_cast<double>(jobs.size()) / p.horizon_hours;
  EXPECT_NEAR(rate, 2.0, 0.1);
}

TEST(WorkloadGen, DurationsCappedAndPositive) {
  // A year of jobs draws a few lognormal tails past the 96 h cap.
  WorkloadParams p;
  p.horizon_hours = 24 * 365;
  const auto jobs = generate_jobs(p);
  double longest = 0;
  for (const auto& j : jobs) {
    EXPECT_GT(j.duration_hours, 0.0);
    longest = std::max(longest, j.duration_hours);
  }
  EXPECT_EQ(longest, 96.0);
}

TEST(WorkloadGen, PowerWithinConfiguredBand) {
  const auto jobs = generate_jobs(WorkloadParams{});
  for (const auto& j : jobs) {
    EXPECT_GE(j.it_power.to_kilowatts(), 0.6);
    EXPECT_LT(j.it_power.to_kilowatts(), 2.4);
  }
}

TEST(WorkloadGen, UsersSpreadAcrossPopulation) {
  WorkloadParams p;
  p.user_count = 4;
  p.horizon_hours = 24 * 30;
  const auto jobs = generate_jobs(p);
  std::set<std::uint32_t> users;
  for (const auto& j : jobs) users.insert(j.user);
  EXPECT_EQ(users, (std::set<std::uint32_t>{0, 1, 2, 3}));
  // User k is named "user<k>", as fleetsim::generate_fleet_jobs names its.
  EXPECT_EQ(generated_user_names(p.user_count),
            (std::vector<std::string>{"user0", "user1", "user2", "user3"}));
}

TEST(WorkloadGen, UniqueSequentialIds) {
  const auto jobs = generate_jobs(WorkloadParams{});
  std::set<int> ids;
  for (const auto& j : jobs) ids.insert(j.id);
  EXPECT_EQ(ids.size(), jobs.size());
  EXPECT_EQ(*ids.begin(), 0);
}

TEST(WorkloadGen, HeavyTailDurations) {
  // Lognormal mix: median well below mean (production GPU cluster shape).
  WorkloadParams p;
  p.horizon_hours = 24 * 365;
  const auto jobs = generate_jobs(p);
  std::vector<double> d;
  for (const auto& j : jobs) d.push_back(j.duration_hours);
  std::sort(d.begin(), d.end());
  const double median = d[d.size() / 2];
  double mean = 0;
  for (double x : d) mean += x;
  mean /= static_cast<double>(d.size());
  EXPECT_GT(mean, median * 1.2);
}

TEST(WorkloadGen, Validation) {
  WorkloadParams p;
  p.horizon_hours = 0;
  EXPECT_THROW(generate_jobs(p), Error);
  p = WorkloadParams{};
  p.arrival_rate_per_hour = 0;
  EXPECT_THROW(generate_jobs(p), Error);
  p = WorkloadParams{};
  p.user_count = 0;
  EXPECT_THROW(generate_jobs(p), Error);
}

}  // namespace
}  // namespace hpcarbon::sched
