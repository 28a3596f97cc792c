// Fleet-simulator suite: the integer-tick engine must stay bit-identical
// to the double-clock reference loop (reference_engine.h) on tick-aligned
// workloads.
//
// The parity argument: kTicksPerHour is a power of two, so every tick
// converts to an exact double, sums of tick-quantized hours are exact FP
// arithmetic, and the (epsilon-free) reference engine therefore walks the
// identical event sequence on the quantized doubles that FleetEngine
// walks on the ticks. Both engines then evaluate the same accounting
// expressions on the same doubles — metrics, per-job outcomes, and ledger
// balances match bitwise, for every registered policy. These tests pin
// exactly that (EXPECT_EQ on doubles, not a tolerance).
#include "fleetsim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/series.h"
#include "core/thread_pool.h"
#include "fleetsim/ablation.h"
#include "fleetsim/completion_heap.h"
#include "fleetsim/jobs.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "job_digest.h"
#include "reference_engine.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

namespace hpcarbon::fleetsim {
namespace {

// Same paper trio the engine/policy suite uses: ERCOT home, ESO + CISO
// remote (generate_traces returns fig7_regions order ESO, CISO, ERCOT).
std::vector<sched::Site> fig7_sites(int capacity = 32) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  return {sched::make_site("ERCOT", traces[2], capacity),
          sched::make_site("ESO", traces[0], capacity),
          sched::make_site("CISO", traces[1], capacity)};
}

/// Snap a double-based workload onto the tick grid, the precondition for
/// bit-identical parity (continuous submit times are not representable in
/// either engine's event maths identically otherwise).
std::vector<sched::Job> quantized(std::vector<sched::Job> jobs) {
  for (auto& j : jobs) {
    j.submit_hour = hours_of(nearest_tick(j.submit_hour));
    j.duration_hours =
        hours_of(std::max<Tick>(1, nearest_tick(j.duration_hours)));
  }
  return jobs;
}

std::vector<sched::Job> seeded_quantized_jobs() {
  sched::WorkloadParams wp;
  wp.horizon_hours = 24 * 10;
  wp.arrival_rate_per_hour = 2.0;
  wp.seed = 31337;
  return quantized(sched::generate_jobs(wp));
}

/// FleetJobs of a sched::generate_jobs workload, whose users are indexes
/// named by generated_user_names (WorkloadParams' default eight users).
FleetJobs fleet_of(const std::vector<sched::Job>& jobs) {
  return FleetJobs(
      jobs, sched::generated_user_names(sched::WorkloadParams{}.user_count));
}

/// Each arrival's submit tick, duration tick and user index, in order.
std::vector<Tick> submit_ticks(const FleetJobs& jobs) {
  std::vector<Tick> ticks;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ticks.push_back(jobs.submit_tick(i));
  }
  return ticks;
}

std::vector<Tick> duration_ticks(const FleetJobs& jobs) {
  std::vector<Tick> ticks;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ticks.push_back(jobs.duration_tick(i));
  }
  return ticks;
}

std::vector<std::uint32_t> user_indexes(const FleetJobs& jobs) {
  std::vector<std::uint32_t> users;
  for (const sched::Job& j : jobs.arrivals()) users.push_back(j.user);
  return users;
}

sched::PolicyConfig tuned_config() {
  sched::PolicyConfig cfg;
  cfg.ci_threshold_g_per_kwh = 320;
  cfg.max_delay_hours = 12;
  cfg.user_budget = Mass::kilograms(150);
  cfg.burn_cap_g_per_hour = 4000;
  return cfg;
}

void expect_metrics_bitwise(const sched::ScheduleMetrics& a,
                            const sched::ScheduleMetrics& b,
                            const std::string& label) {
  EXPECT_EQ(a.total_carbon.to_grams(), b.total_carbon.to_grams()) << label;
  EXPECT_EQ(a.transfer_carbon.to_grams(), b.transfer_carbon.to_grams())
      << label;
  EXPECT_EQ(a.total_energy.to_kwh(), b.total_energy.to_kwh()) << label;
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours) << label;
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours) << label;
  EXPECT_EQ(a.utilization, b.utilization) << label;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << label;
  EXPECT_EQ(a.remote_dispatches, b.remote_dispatches) << label;
}

void expect_outcomes_bitwise(
    const std::vector<sched::Site>& sites, const FleetOutcomes& got,
    const std::vector<reference::JobOutcome>& expected,
    const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.job_id[i], expected[i].job_id) << label;
    EXPECT_EQ(sites[got.site[i]].region->code, expected[i].site) << label;
    EXPECT_EQ(hours_of(got.start[i]), expected[i].start_hour) << label;
    EXPECT_EQ(got.wait_hours[i], expected[i].wait_hours) << label;
    EXPECT_EQ(got.carbon_g[i], expected[i].carbon.to_grams()) << label;
  }
}

TEST(FleetTicks, ConversionsAreExact) {
  EXPECT_EQ(hours_of(0), 0.0);
  EXPECT_EQ(hours_of(kTicksPerHour), 1.0);
  EXPECT_EQ(hours_of(kTicksPerHour / 2), 0.5);
  // Round-trip: any tick-aligned value survives double conversion.
  for (Tick t : {Tick{1}, Tick{3}, Tick{1023}, Tick{123456789}}) {
    EXPECT_EQ(nearest_tick(hours_of(t)), t);
    EXPECT_TRUE(tick_aligned(hours_of(t)));
  }
  EXPECT_FALSE(tick_aligned(0.1));  // 0.1 h is not on a 1/1024 grid
  EXPECT_EQ(ceil_tick(1.0), kTicksPerHour);
  EXPECT_EQ(ceil_tick(hours_of(5) + 1e-9), Tick{6});
}

/// Forwards every callback to a table policy. select() throws once a run
/// has called it 64 times per arrival (plus 4096): an engine that stops
/// making progress (its clock stuck at one tick, or a slot never freed
/// while jobs wait) calls it forever, and its test then fails at once
/// instead of hanging or, recording every callback, filling memory.
class BoundedPolicy : public sched::SchedulingPolicy {
 public:
  explicit BoundedPolicy(std::unique_ptr<sched::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void begin_run(const std::vector<sched::Job>& arrivals,
                 sched::CarbonBudgetLedger& ledger,
                 const sched::ClusterView& view) override {
    selects_left_ = 64 * arrivals.size() + 4096;
    inner_->begin_run(arrivals, ledger, view);
  }
  double planned_start(const sched::Job& job,
                       const sched::ClusterView& view) override {
    return inner_->planned_start(job, view);
  }
  std::optional<sched::DispatchDecision> select(
      const sched::PendingQueue& queue,
      const sched::ClusterView& view) override {
    if (selects_left_ == 0) {
      throw Error(name() + ": select() called past 64 times per arrival; "
                           "the engine stopped making progress");
    }
    --selects_left_;
    return inner_->select(queue, view);
  }
  void on_job_started(const sched::Job& job, std::size_t site,
                      double carbon_g,
                      const sched::ClusterView& view) override {
    inner_->on_job_started(job, site, carbon_g, view);
  }

 private:
  std::unique_ptr<sched::SchedulingPolicy> inner_;
  std::size_t selects_left_ = 0;
};

/// How many of a run's jobs started at their submit tick, and how many
/// later: the two ways FleetEngine completes a job.
struct StartCounts {
  std::size_t on_time = 0;
  std::size_t late = 0;
};

/// Run every registered policy through both engines on `sites` and pin
/// metrics, outcomes, and ledger balances bitwise; returns the fleet
/// engine's starts over every policy. The default epoch is June 1, as the
/// scheduler suite uses.
StartCounts expect_registry_parity(const std::vector<sched::Site>& sites,
                                   const FleetJobs& fleet_jobs,
                                   const sched::PolicyConfig& cfg,
                                   HourOfYear epoch = HourOfYear(3624)) {
  reference::SchedulingEngine oracle(sites, epoch);
  const FleetEngine fleet(sites, epoch);

  StartCounts starts;
  for (const auto& desc : sched::registered_policies()) {
    std::vector<reference::JobOutcome> oracle_outcomes;
    sched::CarbonBudgetLedger oracle_ledger;
    const auto oracle_policy = desc.make(cfg);
    const auto expected = oracle.run(fleet_jobs.arrivals(), *oracle_policy,
                                     &oracle_outcomes, &oracle_ledger);

    FleetOutcomes outcomes;
    sched::CarbonBudgetLedger ledger;
    BoundedPolicy fleet_policy(desc.make(cfg));
    const auto got = fleet.run(fleet_jobs, fleet_policy, &outcomes, &ledger);
    for (const double wait : outcomes.wait_hours) {
      ++(wait == 0 ? starts.on_time : starts.late);
    }

    const std::string label =
        desc.name + " epoch " + std::to_string(epoch.index());
    expect_metrics_bitwise(expected, got, label);
    expect_outcomes_bitwise(sites, outcomes, oracle_outcomes, label);
    for (std::uint32_t u = 0; u < fleet_jobs.users().size(); ++u) {
      EXPECT_EQ(ledger.spent(u).to_grams(), oracle_ledger.spent(u).to_grams())
          << label << " user " << fleet_jobs.users()[u];
      EXPECT_EQ(ledger.allocation(u).to_grams(),
                oracle_ledger.allocation(u).to_grams())
          << label << " user " << fleet_jobs.users()[u];
    }
  }
  return starts;
}

// The tentpole contract: every registered policy produces bit-identical
// metrics, outcomes, and ledger balances through both engines on the
// paper trio.
TEST(FleetParity, AllRegistryPoliciesBitIdentical) {
  const auto jobs = seeded_quantized_jobs();
  ASSERT_GT(jobs.size(), 200u);
  expect_registry_parity(fig7_sites(), fleet_of(jobs), tuned_config());
}

// Congested parity: capacity small enough that queues build and the
// hourly-tick / planned-start wake sources all fire. fcfs-local's queue
// grows into the hundreds, so dispatch takes entries from the front of a
// deep queue, and from its middle under budget-aware and forecast-delay
// (StartsBeforeThePlanAddNoWakeUps covers taking them from the back).
TEST(FleetParity, CongestedTrioStaysBitIdentical) {
  const auto sites = fig7_sites(/*capacity=*/4);
  const auto jobs = seeded_quantized_jobs();
  expect_registry_parity(sites, fleet_of(jobs), {});

  // The queue is deep: right after fcfs-local starts its i-th job, every
  // job submitted by then that is not among the first i + 1 is waiting.
  FleetOutcomes fcfs;
  const auto policy = sched::make_policy("fcfs-local");
  FleetEngine(sites, HourOfYear(3624)).run(fleet_of(jobs), *policy, &fcfs);
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < fcfs.size(); ++i) {
    const double start = hours_of(fcfs.start[i]);
    const auto submitted = static_cast<std::size_t>(std::count_if(
        jobs.begin(), jobs.end(),
        [start](const sched::Job& j) { return j.submit_hour <= start; }));
    deepest = std::max(deepest, submitted - (i + 1));
  }
  EXPECT_GT(deepest, 200u);
}

/// `trace` at `step_seconds`, each hourly sample split into samples that
/// differ within the hour (seeded factors in [0.6, 1.4]).
grid::CarbonIntensityTrace sub_hourly(const grid::CarbonIntensityTrace& trace,
                                      double step_seconds) {
  const auto per_hour =
      static_cast<std::size_t>(kSecondsPerHour / step_seconds);
  Rng rng(static_cast<std::uint64_t>(step_seconds));
  std::vector<double> values;
  values.reserve(trace.size() * per_hour);
  for (const double v : trace.values()) {
    for (std::size_t k = 0; k < per_hour; ++k) {
      values.push_back(v * rng.uniform(0.6, 1.4));
    }
  }
  return grid::CarbonIntensityTrace(trace.region_code(), trace.time_zone(),
                                    std::move(values), step_seconds);
}

/// The paper trio with ESO at 15-minute samples (the tick path of
/// StepSeries::integral_ticks, 256 ticks a sample) and CISO hourly or at
/// 5-minute samples (85 1/3 ticks, the fallback to integral()). Each
/// site's intensity is re-read once per sample, so the sites' sample ends
/// interleave.
std::vector<sched::Site> sub_hourly_sites(double ciso_step_seconds,
                                          int capacity = 8) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  return {sched::make_site("ERCOT", traces[2], capacity),
          sched::make_site("ESO", sub_hourly(traces[0], 900.0), capacity),
          sched::make_site("CISO", sub_hourly(traces[1], ciso_step_seconds),
                           capacity)};
}

// Parity away from the hourly grid and across the year boundary: sites
// whose samples end at 15 minutes, at 5 minutes (between ticks), and on
// the hour, from epochs whose 10-day run crosses hour 8760 (8700, 8759)
// or does not (June 1).
TEST(FleetParity, SubHourlySitesAcrossTheYearStayBitIdentical) {
  const auto jobs = seeded_quantized_jobs();
  for (const double ciso_step : {3600.0, 300.0}) {
    SCOPED_TRACE("CISO step " + std::to_string(ciso_step) + " s");
    const auto sites = sub_hourly_sites(ciso_step);
    for (const int epoch : {3624, 8700, 8759}) {
      expect_registry_parity(sites, fleet_of(jobs), tuned_config(),
                             HourOfYear(epoch));
    }
  }
}

/// One policy callback as the policy saw it: the view's clock, free slots
/// and current intensities, the queue select() read, and what the policy
/// answered or was told.
struct Callback {
  enum Kind : char {
    kBeginRun = 'b',
    kPlannedStart = 'p',
    kSelect = 's',
    kJobStarted = 'o'
  };
  Kind kind = kBeginRun;
  double now = 0;
  std::vector<int> free_slots;
  std::vector<double> current_ci;
  std::vector<std::uint32_t> queue;  // select: the entries' arrivals
  int job = -1;                      // planned_start, on_job_started
  double plan = 0;                   // planned_start's answer
  long queue_index = -1;             // select's decision; -1 waits
  long site = -1;                    // select's decision, or the start's
  double carbon_g = 0;               // on_job_started

  bool operator==(const Callback& o) const {
    const auto same = [](double a, double b) {
      return std::bit_cast<std::uint64_t>(a) ==
             std::bit_cast<std::uint64_t>(b);
    };
    return kind == o.kind && same(now, o.now) &&
           free_slots == o.free_slots &&
           std::equal(current_ci.begin(), current_ci.end(),
                      o.current_ci.begin(), o.current_ci.end(), same) &&
           queue == o.queue && job == o.job && same(plan, o.plan) &&
           queue_index == o.queue_index && site == o.site &&
           same(carbon_g, o.carbon_g);
  }
};

std::string describe(const Callback& c) {
  std::string out = std::string(1, static_cast<char>(c.kind)) +
                    " now=" + std::to_string(c.now) + " free=";
  for (const int f : c.free_slots) out += std::to_string(f) + ",";
  out += " ci=";
  for (const double ci : c.current_ci) out += std::to_string(ci) + ",";
  out += " queue=" + std::to_string(c.queue.size()) + " entries";
  if (!c.queue.empty()) out += " front " + std::to_string(c.queue.front());
  out += " job=" + std::to_string(c.job) + " plan=" + std::to_string(c.plan) +
         " decision=" + std::to_string(c.queue_index) + "@" +
         std::to_string(c.site) + " carbon_g=" + std::to_string(c.carbon_g);
  return out;
}

/// Forwards every callback to a table policy and records it, with the
/// view as the policy saw it, before answering.
class TracingPolicy : public sched::SchedulingPolicy {
 public:
  explicit TracingPolicy(std::unique_ptr<sched::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void begin_run(const std::vector<sched::Job>& arrivals,
                 sched::CarbonBudgetLedger& ledger,
                 const sched::ClusterView& view) override {
    trace.push_back(snapshot(Callback::kBeginRun, view));
    inner_->begin_run(arrivals, ledger, view);
  }
  double planned_start(const sched::Job& job,
                       const sched::ClusterView& view) override {
    Callback c = snapshot(Callback::kPlannedStart, view);
    c.job = job.id;
    c.plan = inner_->planned_start(job, view);
    trace.push_back(std::move(c));
    return trace.back().plan;
  }
  std::optional<sched::DispatchDecision> select(
      const sched::PendingQueue& queue,
      const sched::ClusterView& view) override {
    Callback c = snapshot(Callback::kSelect, view);
    for (const sched::PendingJob& entry : queue) {
      c.queue.push_back(entry.arrival);
    }
    const auto decision = inner_->select(queue, view);
    if (decision.has_value()) {
      c.queue_index = static_cast<long>(decision->queue_index);
      c.site = static_cast<long>(decision->site);
    }
    trace.push_back(std::move(c));
    return decision;
  }
  void on_job_started(const sched::Job& job, std::size_t site,
                      double carbon_g,
                      const sched::ClusterView& view) override {
    Callback c = snapshot(Callback::kJobStarted, view);
    c.job = job.id;
    c.site = static_cast<long>(site);
    c.carbon_g = carbon_g;
    trace.push_back(std::move(c));
    inner_->on_job_started(job, site, carbon_g, view);
  }

  std::vector<Callback> trace;

 private:
  static Callback snapshot(Callback::Kind kind,
                           const sched::ClusterView& view) {
    Callback c;
    c.kind = kind;
    c.now = view.now();
    for (std::size_t s = 0; s < view.site_count(); ++s) {
      c.free_slots.push_back(view.free_slots(s));
      c.current_ci.push_back(view.current_ci(s));
    }
    return c;
  }

  std::unique_ptr<sched::SchedulingPolicy> inner_;
};

/// The first callback at which two traces differ, printed, or nothing.
::testing::AssertionResult same_callbacks(const std::vector<Callback>& want,
                                          const std::vector<Callback>& got) {
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(want[i] == got[i])) {
      return ::testing::AssertionFailure()
             << "callback " << i << " of " << want.size() << " differs:\n"
             << "  reference: " << describe(want[i]) << "\n"
             << "  fleet:     " << describe(got[i]);
    }
  }
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "reference made " << want.size() << " callbacks, fleet "
           << got.size() << "; the first " << n << " match";
  }
  return ::testing::AssertionSuccess();
}

// The engines agree not only on what a run answers but on every
// observation a policy makes on the way: the same callbacks in the same
// order, each with the same clock, free slots, intensities and queue, and
// each answered alike. The reference wakes on every completion and
// FleetEngine only while a job waits, so this pins that the wake-ups it
// skips are ones no callback could see. It covers every table policy from
// idle (256 slots per site) to deep queues (2), from June and from hour
// 8700, where the 10-day run crosses the year, on the hourly trio and on
// one with a 15- and a 5-minute site.
TEST(FleetParity, PoliciesSeeTheSameCallbacksInBothEngines) {
  const auto jobs = seeded_quantized_jobs();
  const FleetJobs fleet_jobs = fleet_of(jobs);
  for (const int capacity : {256, 16, 2}) {
    for (const bool five_minute : {false, true}) {
      const auto sites = five_minute ? sub_hourly_sites(300.0, capacity)
                                     : fig7_sites(capacity);
      for (const int epoch : {3624, 8700}) {
        reference::SchedulingEngine oracle(sites, HourOfYear(epoch));
        const FleetEngine fleet(sites, HourOfYear(epoch));
        for (const auto& desc : sched::registered_policies()) {
          SCOPED_TRACE(desc.name + ", " + std::to_string(capacity) +
                       " slots per site, epoch " + std::to_string(epoch) +
                       (five_minute ? ", 15-min ESO, 5-min CISO" : ", hourly"));
          TracingPolicy want(desc.make(tuned_config()));
          TracingPolicy got(
              std::make_unique<BoundedPolicy>(desc.make(tuned_config())));
          oracle.run(jobs, want);
          fleet.run(fleet_jobs, got);
          EXPECT_GT(want.trace.size(), 2 * jobs.size());
          EXPECT_TRUE(same_callbacks(want.trace, got.trace));
        }
      }
    }
  }
}

// FleetParity runs one policy class through both engines, so it cannot
// see a change on the policy side. These are the queue-scanning and
// forecasting policies' metrics as IEEE-754 bit patterns, recorded from
// the per-call forecast and whole-queue scans they used before, on a
// loaded trio: 12 slots per site against a mean demand of about 10 busy
// slots, so home-only queues build past the 12 h delay budget (p95 wait
// 14.4 h). budget-aware places on any free site, so its queue builds
// only at 4 slots per site; its row was recorded from the scan that
// looked up both users' priorities on every comparison.
TEST(FleetPins, PolicyAnswersKeepTheirBitPatterns) {
  struct Pinned {
    const char* policy;
    int slots_per_site;
    std::uint64_t total_carbon_g;
    std::uint64_t transfer_carbon_g;
    std::uint64_t total_energy_kwh;
    std::uint64_t mean_wait_hours;
    std::uint64_t p95_wait_hours;
    std::uint64_t utilization;
    int jobs_completed;
    int remote_dispatches;
  };
  constexpr Pinned kPinned[] = {
      {"forecast-delay", 12, 0x413664cf95dcb28f, 0, 0x40af36ca75ff5bbf,
       0x40241ade4974c327, 0x402d66c000000000, 0x3fcf10d3ee272eca, 467, 0},
      {"forecast-net-benefit", 12, 0x411d25277096bd7f, 0x40d8d099c035e2cd,
       0x40b084653affaddd, 0, 0, 0x3fd04587bea20a1a, 467, 466},
      {"threshold-delay", 12, 0x41368ba2daa05590, 0, 0x40af36ca75ff5bbe,
       0x40281431e265f622, 0x402cd80000000000, 0x3fcf9baa6706cf1f, 467, 0},
      {"renewable-cap", 12, 0x41369a845dff5abe, 0, 0x40af36ca75ff5bbe,
       0x40273ebf96bfdceb, 0x402cd80000000000, 0x3fcf03a819e707b2, 467, 0},
      {"budget-aware", 4, 0x412c40db0482d978, 0x40daae807b9d8c5d,
       0x40b048653affadde, 0x3fdb202bdab948e8, 0x4004816666666665,
       0x3fe8684b9df30f27, 467, 346},
  };
  const FleetJobs jobs = fleet_of(seeded_quantized_jobs());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Pinned& p : kPinned) {
    const FleetEngine fleet(fig7_sites(p.slots_per_site), HourOfYear(3624));
    const auto policy = sched::make_policy(p.policy, tuned_config());
    const auto m = fleet.run(jobs, *policy);
    EXPECT_EQ(bits(m.total_carbon.to_grams()), p.total_carbon_g) << p.policy;
    EXPECT_EQ(bits(m.transfer_carbon.to_grams()), p.transfer_carbon_g)
        << p.policy;
    EXPECT_EQ(bits(m.total_energy.to_kwh()), p.total_energy_kwh) << p.policy;
    EXPECT_EQ(bits(m.mean_wait_hours), p.mean_wait_hours) << p.policy;
    EXPECT_EQ(bits(m.p95_wait_hours), p.p95_wait_hours) << p.policy;
    EXPECT_EQ(bits(m.utilization), p.utilization) << p.policy;
    EXPECT_EQ(m.jobs_completed, p.jobs_completed) << p.policy;
    EXPECT_EQ(m.remote_dispatches, p.remote_dispatches) << p.policy;
  }
}

// The parity tests compare two engines that share the ledger and the
// user indexes, so a mix-up of indexes and names common to both would
// pass them. These are budget-aware's per-user ledger balances as
// IEEE-754 bit patterns, recorded when the ledger was keyed by user name,
// on the congested trio (4 slots per site) of the pinned run above, and
// looked up here by name. generate_jobs' users first appear as user7,
// user2, user3, ..., out of name order. user8 is in the name table but
// submits no job: budget-aware allocates only to users with a job, so it
// keeps 0, as a name the ledger never saw did.
TEST(FleetPins, BudgetLedgerKeepsItsBitPatternsByName) {
  struct Account {
    const char* user;
    std::uint64_t spent_g;
    std::uint64_t allocation_g;
  };
  constexpr Account kPinned[] = {
      {"user0", 0x4104a85c4bba1c6f, 0x41024f8000000000},
      {"user1", 0x40fa575a5977a8a8, 0x41024f8000000000},
      {"user2", 0x40fdf23305a39ed8, 0x41024f8000000000},
      {"user3", 0x40fffdfbc1f6867c, 0x41024f8000000000},
      {"user4", 0x40f682b0b43e1e88, 0x41024f8000000000},
      {"user5", 0x40fab25efc55e64e, 0x41024f8000000000},
      {"user6", 0x40f88a3b3fd202d3, 0x41024f8000000000},
      {"user7", 0x40f6af4b7b2abd0b, 0x41024f8000000000},
      {"user8", 0, 0},
  };
  const std::vector<sched::Job> generated = seeded_quantized_jobs();
  const FleetJobs jobs(
      generated,
      sched::generated_user_names(static_cast<int>(std::size(kPinned))));
  ASSERT_EQ(jobs.users()[generated.front().user], "user7");

  const FleetEngine fleet(fig7_sites(/*capacity=*/4), HourOfYear(3624));
  const auto policy = sched::make_policy("budget-aware", tuned_config());
  sched::CarbonBudgetLedger ledger;
  const auto m = fleet.run(jobs, *policy, nullptr, &ledger);
  ASSERT_EQ(m.remote_dispatches, 346);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Account& a : kPinned) {
    const std::vector<std::string>& users = jobs.users();
    const auto it = std::find(users.begin(), users.end(), a.user);
    ASSERT_NE(it, users.end()) << a.user;
    const auto u = static_cast<std::uint32_t>(it - users.begin());
    EXPECT_EQ(bits(ledger.spent(u).to_grams()), a.spent_g) << a.user;
    EXPECT_EQ(bits(ledger.allocation(u).to_grams()), a.allocation_g)
        << a.user;
  }
}

/// Plans every start 3 h after submit, then ignores the plan: whenever
/// home has a free slot it starts the newest queued job. Many jobs thus
/// start before their planned tick, each leaving a stale entry in
/// FleetEngine's planned-start heap; a stale entry that woke the engine
/// would show up as an extra select() call.
class EarlyNewestFirstPolicy : public sched::SchedulingPolicy {
 public:
  std::string name() const override { return "early-newest-first"; }
  double planned_start(const sched::Job& job,
                       const sched::ClusterView&) override {
    return job.submit_hour + 3.0;
  }
  std::optional<sched::DispatchDecision> select(
      const sched::PendingQueue& queue,
      const sched::ClusterView& view) override {
    ++select_calls;
    if (queue.empty() || view.free_slots(0) <= 0) return std::nullopt;
    return sched::DispatchDecision{queue.size() - 1, 0};
  }
  std::size_t select_calls = 0;
};

TEST(FleetParity, StartsBeforeThePlanAddNoWakeUps) {
  const auto sites = fig7_sites(/*capacity=*/4);
  const HourOfYear epoch(3624);
  const auto jobs = seeded_quantized_jobs();
  reference::SchedulingEngine oracle(sites, epoch);
  const FleetEngine fleet(sites, epoch);

  EarlyNewestFirstPolicy oracle_policy;
  std::vector<reference::JobOutcome> oracle_outcomes;
  const auto expected = oracle.run(jobs, oracle_policy, &oracle_outcomes);
  EarlyNewestFirstPolicy fleet_policy;
  FleetOutcomes outcomes;
  const auto got = fleet.run(fleet_of(jobs), fleet_policy, &outcomes);

  expect_metrics_bitwise(expected, got, "early-newest-first");
  expect_outcomes_bitwise(sites, outcomes, oracle_outcomes,
                          "early-newest-first");
  EXPECT_EQ(fleet_policy.select_calls, oracle_policy.select_calls);
  // The workload does what the test needs: many jobs start before their
  // plan, and many wait past it.
  const auto early = std::count_if(outcomes.wait_hours.begin(),
                                   outcomes.wait_hours.end(),
                                   [](double w) { return w < 3.0; });
  EXPECT_GT(early, 100);
  EXPECT_GT(static_cast<std::ptrdiff_t>(outcomes.size()) - early, 100);
}

// Tie-heavy parity: bursty workloads submit whole batches at one tick, so
// FCFS order within a tick must be deterministic in BOTH engines. This is
// the regression test for the reference engine's former std::sort (unstable:
// equal submit times could permute, changing dispatch order and therefore
// the FP summation order under congestion).
TEST(FleetParity, SameTickSubmissionsStayBitIdentical) {
  const auto sites = fig7_sites(/*capacity=*/8);
  const HourOfYear epoch(3624);
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kBursty;
  p.horizon_hours = 24 * 10;
  p.rate_per_hour = 6.0;
  p.burst_mean_size = 12.0;
  const FleetJobs fleet_jobs = generate_fleet_jobs(p);
  ASSERT_GT(fleet_jobs.size(), 500u);

  reference::SchedulingEngine oracle(sites, epoch);
  const FleetEngine fleet(sites, epoch);
  for (const char* name : {"fcfs-local", "greedy-lowest-ci"}) {
    const auto p1 = sched::make_policy(name);
    const auto p2 = sched::make_policy(name);
    expect_metrics_bitwise(oracle.run(fleet_jobs.arrivals(), *p1),
                           fleet.run(fleet_jobs, *p2), name);
  }
}

// Quantization drift: production runs snap generated workloads onto the
// tick grid (the FleetJobs constructor, at most 1.8 s per time) instead of
// running them on raw doubles. At `hpcarbon run`'s shape (paper trio,
// capacity 16, 2.5 jobs/h, June start) over 7 days, that moves every
// registered policy's savings against fcfs-local by under 0.1 percentage
// point; the worst seen over 20 seeds was 0.031.
TEST(FleetDrift, SnappingMovesSavingsByUnderATenthOfAPoint) {
  const auto sites = fig7_sites(/*capacity=*/16);
  const HourOfYear epoch(3624);
  reference::SchedulingEngine oracle(sites, epoch);
  const FleetEngine fleet(sites, epoch);
  for (const std::uint64_t seed : {2024u, 7u, 4242u}) {
    sched::WorkloadParams wp;
    wp.horizon_hours = 24 * 7;
    wp.arrival_rate_per_hour = 2.5;
    wp.seed = seed;
    const std::vector<sched::Job> raw = sched::generate_jobs(wp);
    const FleetJobs snapped = fleet_of(raw);
    const auto base_raw = sched::make_policy("fcfs-local");
    const auto base_snapped = sched::make_policy("fcfs-local");
    const double raw_base_g =
        oracle.run(raw, *base_raw).total_carbon.to_grams();
    const double snapped_base_g =
        fleet.run(snapped, *base_snapped).total_carbon.to_grams();
    for (const auto& desc : sched::registered_policies()) {
      const auto p_raw = desc.make({});
      const auto p_snapped = desc.make({});
      const double raw_g = oracle.run(raw, *p_raw).total_carbon.to_grams();
      const double snapped_g =
          fleet.run(snapped, *p_snapped).total_carbon.to_grams();
      const double raw_savings = 100.0 * (raw_base_g - raw_g) / raw_base_g;
      const double snapped_savings =
          100.0 * (snapped_base_g - snapped_g) / snapped_base_g;
      EXPECT_NEAR(snapped_savings, raw_savings, 0.1)
          << desc.name << " seed " << seed;
    }
  }
}

TEST(FleetEngineBasics, EmptyFleetYieldsZeroMetrics) {
  const FleetEngine fleet(fig7_sites(), HourOfYear(0));
  const auto policy = sched::make_policy("fcfs-local");
  FleetOutcomes outcomes;
  const auto m = fleet.run(FleetJobs{}, *policy, &outcomes);
  EXPECT_EQ(m.jobs_completed, 0);
  EXPECT_EQ(m.total_carbon.to_grams(), 0.0);
  EXPECT_EQ(outcomes.size(), 0u);
}

sched::Job job_at(int id, double submit_hour, double duration_hours) {
  sched::Job j;
  j.id = id;
  j.submit_hour = submit_hour;
  j.duration_hours = duration_hours;
  j.it_power = Power::kilowatts(1.0);
  return j;
}

std::vector<int> arrival_ids(const FleetJobs& jobs) {
  std::vector<int> ids;
  for (const sched::Job& j : jobs.arrivals()) ids.push_back(j.id);
  return ids;
}

// The constructor is the only way to build a fleet, so it holds the whole
// contract a run relies on: sorted arrivals on the tick grid, and every
// user index named.
TEST(FleetEngineBasics, ConstructorSortsSnapsAndRejects) {
  // Unsorted input comes out stable-sorted by the raw submit times: ids 3
  // and 4 tie and keep their input order, and ids 1 and 2, a quarter tick
  // apart and given in reverse order, both snap to hour 2 in time order,
  // which sorting the snapped ticks would leave reversed.
  const double quarter_tick = hours_of(1) / 4;
  const FleetJobs sorted(
      {job_at(0, 5.0, 1.0), job_at(1, 2.0 + quarter_tick, 1.0),
       job_at(2, 2.0, 1.0), job_at(3, 1.0, 1.0), job_at(4, 1.0, 1.0)},
      {"a"});
  EXPECT_EQ(arrival_ids(sorted), (std::vector<int>{3, 4, 2, 1, 0}));
  EXPECT_EQ(submit_ticks(sorted),
            (std::vector<Tick>{kTicksPerHour, kTicksPerHour, 2 * kTicksPerHour,
                               2 * kTicksPerHour, 5 * kTicksPerHour}));
  EXPECT_EQ(sorted.arrivals()[3].submit_hour, 2.0);

  // Off-grid times snap to the nearest tick; negative submits clamp to 0
  // and sub-tick durations to one tick.
  const FleetJobs clamped({job_at(0, -0.5, 0.0), job_at(1, 0.0, quarter_tick),
                           job_at(2, 0.1, 0.1)},
                          {"a"});
  EXPECT_EQ(submit_ticks(clamped), (std::vector<Tick>{0, 0, 102}));
  EXPECT_EQ(duration_ticks(clamped), (std::vector<Tick>{1, 1, 102}));
  EXPECT_EQ(clamped.arrivals()[0].submit_hour, 0.0);
  EXPECT_EQ(clamped.arrivals()[1].duration_hours, hours_of(1));
  EXPECT_EQ(clamped.arrivals()[2].submit_hour, hours_of(102));

  // A user index with no name.
  sched::Job unnamed = job_at(0, 0.0, 1.0);
  unnamed.user = 1;
  EXPECT_THROW(FleetJobs({unnamed}, {"a"}), Error);

  // Submits and durations at kMaxJobHours are valid; beyond it, and NaN,
  // are rejected in hours before anything rounds to ticks.
  const FleetJobs at_bound({job_at(0, kMaxJobHours, kMaxJobHours)}, {"a"});
  EXPECT_EQ(at_bound.submit_tick(0), kMaxJobTicks);
  EXPECT_EQ(at_bound.duration_tick(0), kMaxJobTicks);
  for (const double hours : {1e30, kMaxJobHours * (1 + 1e-9),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(FleetJobs({job_at(0, hours, 1.0)}, {"a"}), Error) << hours;
    EXPECT_THROW(FleetJobs({job_at(0, 0.0, hours)}, {"a"}), Error) << hours;
  }
}

/// The arrival at each position of the fleet's natural completion order.
std::vector<std::size_t> arrivals_by_position(const FleetJobs& jobs) {
  std::vector<std::size_t> arrival(jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint32_t p = jobs.natural_position(i);
    EXPECT_LT(p, jobs.size()) << "arrival " << i;
    if (p >= jobs.size()) continue;
    EXPECT_EQ(arrival[p], jobs.size()) << "position " << p << " taken twice";
    arrival[p] = i;
  }
  return arrival;
}

/// Every position holds one arrival, whose natural tick is its submit
/// plus duration tick; ticks ascend along the order, equal ticks in
/// arrival order.
void expect_natural_order(const FleetJobs& jobs, const std::string& label) {
  const std::vector<std::size_t> arrival = arrivals_by_position(jobs);
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    ASSERT_LT(arrival[p], jobs.size()) << label << " position " << p;
    EXPECT_EQ(jobs.natural_position(arrival[p]), p) << label;
    EXPECT_EQ(jobs.natural_tick(p), jobs.submit_tick(arrival[p]) +
                                        jobs.duration_tick(arrival[p]))
        << label << " position " << p;
    if (p == 0) continue;
    EXPECT_LE(jobs.natural_tick(p - 1), jobs.natural_tick(p))
        << label << " position " << p;
    if (jobs.natural_tick(p - 1) == jobs.natural_tick(p)) {
      EXPECT_LT(arrival[p - 1], arrival[p]) << label << " position " << p;
    }
  }
}

// The natural completion order, which FleetEngine frees on-time starts
// in, ranks the arrivals by submit + duration tick, ties in arrival order,
// up to natural ticks of 2 * kMaxJobTicks.
TEST(FleetJobsOrder, PositionsAscendByNaturalTickTiesInArrivalOrder) {
  // Natural ticks 3 h, 3 h, 2 h, 5 h and 2 h plus the one tick a zero
  // duration clamps to.
  const FleetJobs small({job_at(0, 0.0, 3.0), job_at(1, 1.0, 2.0),
                         job_at(2, 1.0, 1.0), job_at(3, 2.0, 3.0),
                         job_at(4, 2.0, 0.0)},
                        {"a"});
  const std::vector<std::uint32_t> want_positions = {2, 3, 0, 4, 1};
  const std::vector<Tick> want_ticks = {2 * kTicksPerHour,
                                        2 * kTicksPerHour + 1,
                                        3 * kTicksPerHour, 3 * kTicksPerHour,
                                        5 * kTicksPerHour};
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.natural_position(i), want_positions[i]) << i;
    EXPECT_EQ(small.natural_tick(i), want_ticks[i]) << i;
  }
  expect_natural_order(small, "small");

  // Near the bound the ticks need the radix sort's top digits, and the
  // largest, 2 * kMaxJobTicks, reads back exactly from 32 bits.
  const FleetJobs far(
      {job_at(0, 0.0, 1.0), job_at(1, kMaxJobHours - 1.0, kMaxJobHours),
       job_at(2, kMaxJobHours, kMaxJobHours - 2.0),
       job_at(3, kMaxJobHours, kMaxJobHours)},
      {"a"});
  EXPECT_EQ(far.natural_position(1), 2u);
  EXPECT_EQ(far.natural_position(2), 1u);
  EXPECT_EQ(far.natural_tick(3), 2 * kMaxJobTicks);
  EXPECT_EQ(far.natural_tick(2), 2 * kMaxJobTicks - kTicksPerHour);
  expect_natural_order(far, "near kMaxJobTicks");

  // Generated fleets: bursty batches share submit ticks, so many natural
  // ticks tie.
  for (const auto process : {ArrivalProcess::kPoisson,
                             ArrivalProcess::kDiurnal,
                             ArrivalProcess::kBursty}) {
    FleetWorkloadParams p;
    p.process = process;
    p.horizon_hours = 24 * 28;
    const FleetJobs generated = generate_fleet_jobs(p);
    ASSERT_GT(generated.size(), 2000u);
    expect_natural_order(generated, to_string(process));
  }
  expect_natural_order(FleetJobs{}, "empty");
}

// On-time starts complete in the fleet's natural order and late ones
// through the completion heap, so the two must agree with the reference
// wherever they mix: small poisson, diurnal and bursty fleets, from idle
// (8 slots per site) to one slot per site, under every table policy, with
// metrics, outcomes and ledgers compared bit for bit. The sweep holds
// both kinds of start by the thousand (3,565 on time and 18,003 late).
TEST(FleetParity, OnTimeAndLateStartsStayBitIdentical) {
  std::vector<std::vector<sched::Site>> trios;
  for (const int slots : {1, 2, 4, 8}) trios.push_back(fig7_sites(slots));
  StartCounts starts;
  for (const auto process : {ArrivalProcess::kPoisson,
                             ArrivalProcess::kDiurnal,
                             ArrivalProcess::kBursty}) {
    FleetWorkloadParams p;
    p.process = process;
    p.horizon_hours = 24 * 4;
    p.rate_per_hour = 2.0;
    p.seed = 35;
    const FleetJobs jobs = generate_fleet_jobs(p);
    ASSERT_LE(jobs.size(), 400u) << to_string(process);
    for (const auto& sites : trios) {
      SCOPED_TRACE(std::string(to_string(process)) + ", " +
                   std::to_string(sites[0].capacity) + " slots per site");
      const StartCounts run = expect_registry_parity(sites, jobs,
                                                     tuned_config());
      starts.on_time += run.on_time;
      starts.late += run.late;
    }
  }
  EXPECT_GT(starts.on_time, 1000u);
  EXPECT_GT(starts.late, 1000u);
}

// A job that starts one tick after its submit completes one tick after
// its natural tick, so it must complete through the heap. Here it holds
// a slot past its natural tick, at which the next job arrives and must
// wait that tick. One site of two slots under fcfs-local: job 0 (until
// tick 1025) and job 1 (until 2000) start at tick 0; job 2, submitted at
// 1024, starts at 1025, one tick late, for 2048 ticks; job 3 takes the
// slot job 1 frees at 2000; job 4 arrives at 3072, job 2's natural tick,
// and starts at 3073. Job 2's position in the natural order comes up
// right after job 1's completion, so the order must not free it.
TEST(FleetParity, StartOneTickLateCompletesOneTickAfterItsNaturalTick) {
  const FleetJobs jobs({job_at(0, 0.0, hours_of(1025)),
                        job_at(1, 0.0, hours_of(2000)),
                        job_at(2, 1.0, 2.0),
                        job_at(3, hours_of(2000), 4.0),
                        job_at(4, 3.0, 1.0)},
                       {"a"});
  std::vector<sched::Site> sites = fig7_sites(/*capacity=*/2);
  sites.resize(1);
  const HourOfYear epoch(3624);
  const auto oracle_policy = sched::make_policy("fcfs-local");
  std::vector<reference::JobOutcome> oracle_outcomes;
  const auto expected = reference::SchedulingEngine(sites, epoch)
                            .run(jobs.arrivals(), *oracle_policy,
                                 &oracle_outcomes);
  BoundedPolicy policy(sched::make_policy("fcfs-local"));
  FleetOutcomes outcomes;
  const auto got = FleetEngine(sites, epoch).run(jobs, policy, &outcomes);
  expect_metrics_bitwise(expected, got, "one tick late");
  expect_outcomes_bitwise(sites, outcomes, oracle_outcomes, "one tick late");
  EXPECT_EQ(outcomes.start, (std::vector<Tick>{0, 0, 1025, 2000, 3073}));
}

/// Records the arrivals each run hands begin_run, and starts the front
/// job at home whenever a slot is free.
class RecordingPolicy : public sched::SchedulingPolicy {
 public:
  std::string name() const override { return "recording"; }
  void begin_run(const std::vector<sched::Job>& arrivals,
                 sched::CarbonBudgetLedger&,
                 const sched::ClusterView&) override {
    seen.push_back(&arrivals);
  }
  std::optional<sched::DispatchDecision> select(
      const sched::PendingQueue& queue,
      const sched::ClusterView& view) override {
    if (queue.empty() || view.free_slots(0) <= 0) return std::nullopt;
    return sched::DispatchDecision{0, 0};
  }
  std::vector<const std::vector<sched::Job>*> seen;
};

// A run reads the fleet's own arrivals: no run copies them, so two runs of
// one fleet hand begin_run the same vector, and answer the same.
TEST(FleetEngineBasics, RunsReadTheFleetsArrivalsInPlace) {
  const FleetJobs fleet = fleet_of(seeded_quantized_jobs());
  const FleetEngine engine(fig7_sites(/*capacity=*/4), HourOfYear(3624));
  RecordingPolicy policy;
  const auto first = engine.run(fleet, policy);
  const auto second = engine.run(fleet, policy);
  ASSERT_EQ(policy.seen.size(), 2u);
  EXPECT_EQ(policy.seen[0], &fleet.arrivals());
  EXPECT_EQ(policy.seen[1], &fleet.arrivals());
  EXPECT_EQ(first.jobs_completed, static_cast<int>(fleet.size()));
  expect_metrics_bitwise(first, second, "recording");
}

// Three sites of INT_MAX slots each: the total must not wrap (signed int
// overflow), and utilization divides by the same total.
TEST(FleetEngineBasics, CapacityTotalHoldsThreeSitesOfIntMaxSlots) {
  const int slots = std::numeric_limits<int>::max();
  const FleetEngine engine(fig7_sites(slots), HourOfYear(0));
  EXPECT_EQ(engine.capacity_total(), 3 * std::int64_t{slots});
  const FleetJobs fleet({job_at(0, 0.0, 2.0), job_at(1, 1.0, 2.0)}, {"a"});
  const auto policy = sched::make_policy("fcfs-local");
  const auto m = engine.run(fleet, *policy);
  EXPECT_EQ(m.jobs_completed, 2);
  // 4 busy node-hours over a 3 h makespan on every slot.
  EXPECT_EQ(m.utilization, 4.0 / (3.0 * slots * 3.0));
}

// The engine's completion heap frees the same sites at the same ticks as
// the std::priority_queue of (tick, site) pairs it replaced. Both order
// ties by site, so the freed sequences match, not only the sets. Random
// pushes and "pop everything due by t" steps run over 1, 3 and 1000
// sites (0, 2 and 10 site bits), from tick 0 with many tied ticks and
// from just below the guard's limit, where pushes pile up at the limit;
// a quarter of the completions are long, so the heap grows hundreds deep
// (five levels and more).
TEST(FleetCompletionHeap, MatchesPriorityQueue) {
  using Entry = std::pair<Tick, std::uint32_t>;
  for (const std::size_t sites : {std::size_t{1}, std::size_t{3},
                                  std::size_t{1000}}) {
    const Tick limit = CompletionHeap(sites).max_tick();
    EXPECT_EQ(limit, std::numeric_limits<Tick>::max() >>
                         std::bit_width(sites - 1));
    for (const Tick base : {Tick{0}, limit - 20000}) {
      CompletionHeap heap(sites);
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
          oracle;
      std::mt19937_64 rng(sites + static_cast<std::size_t>(base != 0));
      // t + ahead, held at the limit (computed without overflow).
      auto later = [&](Tick t, std::uint64_t ahead) {
        return static_cast<std::uint64_t>(limit - t) < ahead
                   ? limit
                   : t + static_cast<Tick>(ahead);
      };
      std::size_t deepest = 0;
      Tick t = base;
      for (int step = 0; step < 30000; ++step) {
        if (rng() % 3 != 0) {
          const std::uint64_t span = rng() % 4 == 0 ? 20000 : 64;
          const Tick tick = later(t, rng() % span);
          const auto site = static_cast<std::uint32_t>(rng() % sites);
          heap.push(tick, site);
          oracle.emplace(tick, site);
        } else {
          t = later(t, rng() % 16);
          std::vector<std::uint32_t> freed;
          std::vector<std::uint32_t> want;
          while (!heap.empty() && heap.top_tick() <= t) {
            freed.push_back(heap.top_site());
            heap.pop();
          }
          while (!oracle.empty() && oracle.top().first <= t) {
            want.push_back(oracle.top().second);
            oracle.pop();
          }
          ASSERT_EQ(freed, want) << sites << " sites, step " << step;
        }
        ASSERT_EQ(heap.size(), oracle.size());
        if (!oracle.empty()) {
          ASSERT_EQ(heap.top_tick(), oracle.top().first);
        }
        deepest = std::max(deepest, heap.size());
      }
      EXPECT_GT(deepest, 500u);
    }
    CompletionHeap heap(sites);
    EXPECT_THROW(heap.push(-1, 0), Error);
    if (limit < std::numeric_limits<Tick>::max()) {
      EXPECT_THROW(heap.push(limit + 1, 0), Error);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(FleetWorkload, GenerationIsDeterministicPerSeedAndProcess) {
  FleetWorkloadParams p;
  p.horizon_hours = 24 * 7;
  p.rate_per_hour = 6.0;
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kDiurnal,
                             ArrivalProcess::kBursty}) {
    p.process = process;
    const FleetJobs a = generate_fleet_jobs(p);
    const FleetJobs b = generate_fleet_jobs(p);
    ASSERT_GT(a.size(), 100u) << to_string(process);
    EXPECT_EQ(submit_ticks(a), submit_ticks(b)) << to_string(process);
    EXPECT_EQ(duration_ticks(a), duration_ticks(b)) << to_string(process);
    EXPECT_EQ(user_indexes(a), user_indexes(b)) << to_string(process);
    // The generator emits ascending submits, so the constructor keeps its
    // order: ids come out 0..n-1 (a sort would have moved some).
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.arrivals()[i].id, static_cast<int>(i)) << to_string(process);
    }
    // The long-run rate is preserved within sampling noise (20%).
    const double expected = p.rate_per_hour * p.horizon_hours;
    EXPECT_NEAR(static_cast<double>(a.size()), expected, 0.2 * expected)
        << to_string(process);
  }
  p.process = ArrivalProcess::kPoisson;
  p.seed = 777;
  const FleetJobs other_seed = generate_fleet_jobs(p);
  p.seed = 2024;
  const FleetJobs base = generate_fleet_jobs(p);
  EXPECT_NE(submit_ticks(base), submit_ticks(other_seed));
}

// Every generated fleet, bit for bit, one per arrival process over a week.
// A mismatch prints the digest of the build under test.
TEST(FleetWorkload, GeneratedFleetsKeepTheirBitPatterns) {
  struct Pinned {
    ArrivalProcess process;
    std::size_t jobs;
    std::uint64_t digest;
  };
  constexpr Pinned kPinned[] = {
      {ArrivalProcess::kPoisson, 696, 0xfeaa59361f755305},
      {ArrivalProcess::kDiurnal, 684, 0x871cb1f5237176f8},
      {ArrivalProcess::kBursty, 865, 0x2a24f3f51de54903},
  };
  for (const Pinned& pin : kPinned) {
    FleetWorkloadParams p;
    p.process = pin.process;
    p.horizon_hours = 24 * 7;
    const FleetJobs jobs = generate_fleet_jobs(p);
    const std::uint64_t digest = testutil::job_digest(jobs.arrivals());
    EXPECT_EQ(jobs.size(), pin.jobs) << to_string(pin.process);
    EXPECT_EQ(digest, pin.digest)
        << to_string(pin.process) << " digest 0x" << std::hex << digest;
  }
}

TEST(FleetWorkload, AttributeStreamIsSharedAcrossProcesses) {
  // Substream separation: the duration draw sequence depends only on the
  // seed, not on which arrival process consumed the arrival stream.
  FleetWorkloadParams p;
  p.horizon_hours = 24 * 7;
  p.rate_per_hour = 6.0;
  p.process = ArrivalProcess::kPoisson;
  const FleetJobs poisson = generate_fleet_jobs(p);
  p.process = ArrivalProcess::kDiurnal;
  const FleetJobs diurnal = generate_fleet_jobs(p);
  const std::size_t n = std::min(poisson.size(), diurnal.size());
  ASSERT_GT(n, 100u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(poisson.duration_tick(i), diurnal.duration_tick(i)) << i;
    ASSERT_EQ(poisson.arrivals()[i].user, diurnal.arrivals()[i].user) << i;
  }
}

TEST(FleetWorkload, DiurnalConcentratesArrivalsAroundPeak) {
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kDiurnal;
  p.horizon_hours = 24 * 28;
  p.rate_per_hour = 8.0;
  p.diurnal_amplitude = 0.9;
  const FleetJobs jobs = generate_fleet_jobs(p);
  std::size_t near_peak = 0;
  std::size_t near_trough = 0;
  for (const Tick t : submit_ticks(jobs)) {
    const double hour_of_day = std::fmod(hours_of(t), 24.0);
    if (std::abs(hour_of_day - p.diurnal_peak_hour) <= 3) ++near_peak;
    const double trough = std::fmod(p.diurnal_peak_hour + 12.0, 24.0);
    if (std::abs(hour_of_day - trough) <= 3) ++near_trough;
  }
  EXPECT_GT(near_peak, 2 * near_trough);
}

TEST(FleetWorkload, BurstyBatchesShareSubmitTicks) {
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kBursty;
  p.horizon_hours = 24 * 14;
  p.rate_per_hour = 8.0;
  p.burst_mean_size = 8.0;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_GT(jobs.size(), 200u);
  // Far fewer distinct submit ticks than jobs: batches land together.
  std::vector<Tick> distinct = submit_ticks(jobs);
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_LT(distinct.size() * 3, jobs.size());
}

std::string data_path(const std::string& name) {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/" + name;
}

TEST(FleetReplay, SampleFixtureLoadsAndRuns) {
  const FleetJobs jobs =
      load_jobs_csv(data_path("jobs_sample.csv"), /*site_count=*/3);
  ASSERT_EQ(jobs.size(), 12u);
  // The fixture's rows ascend by submit, two of them tied at 2.0 h, so
  // arrivals keep the file's row order: ids are the rows, from 0.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs.arrivals()[i].id, static_cast<int>(i));
  }
  EXPECT_EQ(hours_of(jobs.submit_tick(0)), 0.0);
  EXPECT_EQ(hours_of(jobs.submit_tick(11)), 24.0);
  EXPECT_EQ(hours_of(jobs.duration_tick(0)), 2.5);
  // Names are interned in order of first appearance, and every row of a
  // name shares its one index (ids are file rows).
  EXPECT_EQ(jobs.users(),
            (std::vector<std::string>{"alice", "bob", "carol", "dave"}));
  const char* const row_user[] = {"alice", "bob",  "alice", "carol",
                                  "dave",  "bob",  "carol", "alice",
                                  "dave",  "bob",  "carol", "alice"};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sched::Job& j = jobs.arrivals()[i];
    EXPECT_EQ(jobs.users()[j.user], row_user[j.id]) << i;
  }
  // First appearance is counted in file order, not submit order.
  const FleetJobs unsorted = parse_jobs_csv(
      "submit_hours,duration_hours,power_kw,user\n"
      "5,1,1,zed\n0,1,1,amy\n3,1,1,zed\n1,1,1,bo\n");
  EXPECT_EQ(unsorted.users(), (std::vector<std::string>{"zed", "amy", "bo"}));
  EXPECT_EQ(user_indexes(unsorted), (std::vector<std::uint32_t>{1, 2, 0, 0}));
  EXPECT_EQ(jobs.arrivals()[0].it_power.to_kilowatts(),
            Power::kilowatts(1.2).to_kilowatts());

  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  const auto policy = sched::make_policy("greedy-lowest-ci");
  const auto m = fleet.run(jobs, *policy);
  EXPECT_EQ(m.jobs_completed, 12);
  EXPECT_GT(m.total_carbon.to_grams(), 0.0);
}

TEST(FleetReplay, ReplayedFixtureMatchesReferenceEngine) {
  // Replayed traces go through the same parity contract as synthetic
  // workloads: the fixture's times are tick-aligned, so both engines
  // must agree bitwise.
  const FleetJobs jobs = load_jobs_csv(data_path("jobs_sample.csv"), 3);
  const auto sites = fig7_sites();
  reference::SchedulingEngine oracle(sites, HourOfYear(3624));
  const FleetEngine fleet(sites, HourOfYear(3624));
  const auto p1 = sched::make_policy("net-benefit");
  const auto p2 = sched::make_policy("net-benefit");
  expect_metrics_bitwise(oracle.run(jobs.arrivals(), *p1),
                         fleet.run(jobs, *p2), "replay");
}

void expect_rejects(const std::string& csv, const std::string& needle,
                    std::size_t site_count = 3) {
  try {
    parse_jobs_csv(csv, site_count);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FleetReplay, RejectionsCarryLineNumbers) {
  const std::string header = "submit_hours,duration_hours,power_kw,user\n";
  // Ragged row (line number from the raw CSV layer).
  expect_rejects(header + "0,1,1,alice\n2,1,1\n", "ragged CSV row 3");
  // Negative / zero durations.
  expect_rejects(header + "0,-2,1,alice\n", "duration_hours must be positive (line 2)");
  expect_rejects(header + "0,1,1,alice\n1,0,1,bob\n", "line 3");
  // Negative submit, bad number, empty user.
  expect_rejects(header + "-1,1,1,alice\n", "negative submit_hours (line 2)");
  expect_rejects(header + "0,abc,1,alice\n", "non-numeric duration_hours");
  expect_rejects(header + "0,1,1,\n", "empty user (line 2)");
  // Non-finite cells: strtod accepts them, and every sign check passes
  // nan; an inf duration would collapse to one tick.
  expect_rejects(header + "nan,1,1,alice\n",
                 "non-finite submit_hours 'nan' (line 2)");
  expect_rejects(header + "0,1,1,alice\n0,inf,1,bob\n",
                 "non-finite duration_hours 'inf' (line 3)");
  expect_rejects(header + "0,1,inf,alice\n",
                 "non-finite power_kw 'inf' (line 2)");
  // Times above kMaxJobHours (1e6 h): llround's result for a 1e30 h cell
  // is unspecified, and a 1e12 h job's forecast window loop never ends.
  expect_rejects(header + "0,1e30,1,a\n",
                 "duration_hours above 1000000 hours (line 2)");
  expect_rejects(header + "1e30,1,1,a\n",
                 "submit_hours above 1000000 hours (line 2)");
  expect_rejects(header + "0,1,1,a\n0,1e12,1,a\n",
                 "duration_hours above 1000000 hours (line 3)");
  expect_rejects(header + "1000000.001,1,1,a\n",
                 "submit_hours above 1000000 hours (line 2)");
  EXPECT_NO_THROW(parse_jobs_csv(header + "1000000,1000000,1,a\n"));
  // Out-of-range or fractional site, against site_count=3.
  const std::string h5 = "submit_hours,duration_hours,power_kw,user,site\n";
  expect_rejects(h5 + "0,1,1,alice,3\n", "site must be an integer in [0, 3) (line 2)");
  expect_rejects(h5 + "0,1,1,alice,-1\n", "line 2");
  expect_rejects(h5 + "0,1,1,alice,1.5\n", "line 2");
  // Header itself must match.
  expect_rejects("a,b,c,d\n0,1,1,alice\n", "header must be");
}

/// A flat year-long trace: its annual median is `level`.
grid::CarbonIntensityTrace flat_trace(const std::string& code, double level) {
  return grid::CarbonIntensityTrace(
      code, kUtc, std::vector<double>(static_cast<std::size_t>(kHoursPerYear),
                                      level));
}

std::vector<std::string> site_codes(const FleetEngine& engine) {
  std::vector<std::string> codes;
  for (const auto& site : engine.sites()) codes.push_back(site.region->code);
  return codes;
}

TEST(TrioAblation, HomeThenTwoCleanestOthersTiesInListOrder) {
  using sched::prepare_region;
  const auto home = prepare_region(flat_trace("HOME", 50));  // cleanest
  const auto dirty = prepare_region(flat_trace("DIRTY", 900));
  const auto tie_a = prepare_region(flat_trace("TIE_A", 300));
  const auto tie_b = prepare_region(flat_trace("TIE_B", 300));
  const auto clean = prepare_region(flat_trace("CLEAN", 100));
  const HourOfYear epoch(0);
  EXPECT_EQ(site_codes(trio_engine({home}, 4, epoch)),
            (std::vector<std::string>{"HOME"}));
  EXPECT_EQ(site_codes(trio_engine({home, dirty}, 4, epoch)),
            (std::vector<std::string>{"HOME", "DIRTY"}));
  EXPECT_EQ(site_codes(trio_engine({home, dirty, tie_b, clean, tie_a}, 4,
                                   epoch)),
            (std::vector<std::string>{"HOME", "CLEAN", "TIE_B"}));
  EXPECT_EQ(site_codes(trio_engine({home, dirty, tie_a, tie_b}, 4, epoch)),
            (std::vector<std::string>{"HOME", "TIE_A", "TIE_B"}));
  const FleetEngine pair = trio_engine({home, dirty}, 7, epoch);
  for (const auto& site : pair.sites()) EXPECT_EQ(site.capacity, 7);
  // The sites share the prepared regions they were given.
  EXPECT_EQ(pair.sites()[0].region, home);
  EXPECT_EQ(pair.sites()[1].region, dirty);

  // The presets, in fig7_regions order ESO, CISO, ERCOT (medians 189, 263
  // and 367 g/kWh): the orders the sched-ablation bench, sweep, the
  // carbon-aware-scheduling example and bench perf used to write by hand.
  const auto presets =
      sched::prepare_regions(grid::generate_traces(grid::fig7_regions()));
  const auto& eso = presets[0];
  const auto& ciso = presets[1];
  const auto& ercot = presets[2];
  EXPECT_EQ(site_codes(trio_engine({ercot, eso, ciso}, 4, epoch)),
            (std::vector<std::string>{"ERCOT", "ESO", "CISO"}));
  EXPECT_EQ(site_codes(trio_engine({ercot, ciso, eso}, 4, epoch)),
            (std::vector<std::string>{"ERCOT", "ESO", "CISO"}));
  EXPECT_EQ(site_codes(trio_engine({eso, ciso, ercot}, 4, epoch)),
            (std::vector<std::string>{"ESO", "CISO", "ERCOT"}));
}

TEST(TrioAblation, PoliciesScoreAgainstOneBaselineRun) {
  const FleetEngine fleet(fig7_sites(/*capacity=*/4), HourOfYear(3624));
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 3;
  wp.rate_per_hour = 3.0;
  const FleetJobs jobs = generate_fleet_jobs(wp);
  const Ablation ablation =
      run_ablation(fleet, jobs, {"greedy-lowest-ci", kBaselinePolicy});
  ASSERT_EQ(ablation.policies.size(), 2u);

  const auto fcfs = sched::make_policy(kBaselinePolicy);
  const auto base = fleet.run(jobs, *fcfs);
  const auto greedy = sched::make_policy("greedy-lowest-ci");
  const auto metrics = fleet.run(jobs, *greedy);
  const double base_g = base.total_carbon.to_grams();
  const double g = metrics.total_carbon.to_grams();
  EXPECT_EQ(ablation.baseline.total_carbon.to_grams(), base_g);
  EXPECT_EQ(ablation.policies[0].metrics.total_carbon.to_grams(), g);
  EXPECT_EQ(ablation.policies[0].metrics.remote_dispatches,
            metrics.remote_dispatches);
  EXPECT_EQ(ablation.policies[0].savings_pct, 100.0 * (base_g - g) / base_g);
  // A named baseline is the baseline run, scored at exactly zero.
  EXPECT_EQ(ablation.policies[1].metrics.total_carbon.to_grams(), base_g);
  EXPECT_EQ(ablation.policies[1].savings_pct, 0.0);

  // A non-default config reaches the policies run_ablation makes.
  sched::PolicyConfig cfg;
  cfg.ci_threshold_g_per_kwh = 320.0;
  cfg.max_delay_hours = 3.0;
  const Ablation tuned = run_ablation(fleet, jobs, {"threshold-delay"}, cfg);
  const auto threshold = sched::make_policy("threshold-delay", cfg);
  const auto direct = fleet.run(jobs, *threshold);
  const double tuned_g = direct.total_carbon.to_grams();
  ASSERT_EQ(tuned.policies.size(), 1u);
  EXPECT_EQ(tuned.baseline.total_carbon.to_grams(), base_g);
  EXPECT_EQ(tuned.policies[0].metrics.total_carbon.to_grams(), tuned_g);
  EXPECT_EQ(tuned.policies[0].metrics.mean_wait_hours, direct.mean_wait_hours);
  EXPECT_EQ(tuned.policies[0].savings_pct,
            100.0 * (base_g - tuned_g) / base_g);
  EXPECT_NE(run_ablation(fleet, jobs, {"threshold-delay"})
                .policies[0]
                .metrics.total_carbon.to_grams(),
            tuned_g);
}

TEST(TrioAblation, SavingsDistributionsPairEachSampleAndIgnoreThreadCount) {
  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 3;
  wp.rate_per_hour = 2.0;
  const auto jobs_for_seed = [&wp](std::uint64_t seed) {
    FleetWorkloadParams sample = wp;
    sample.seed = seed;
    return generate_fleet_jobs(sample);
  };
  const std::vector<std::string> policies = {kBaselinePolicy,
                                             "greedy-lowest-ci"};
  ThreadPool one(1);
  ThreadPool four(4);
  const auto d1 = savings_distributions(fleet, policies, {16, 99, &one},
                                        jobs_for_seed);
  const auto d4 = savings_distributions(fleet, policies, {16, 99, &four},
                                        jobs_for_seed);
  ASSERT_EQ(d1.size(), 2u);
  ASSERT_EQ(d4.size(), 2u);
  EXPECT_EQ(d1[0].p95(), 0.0);
  EXPECT_EQ(d1[1].samples(), d4[1].samples());
  EXPECT_EQ(d1[1].p50(), d4[1].p50());
  EXPECT_EQ(d1[1].p05(), d4[1].p05());
  EXPECT_EQ(d1[1].p95(), d4[1].p95());

  // Sample i is run_ablation on the jobs of substream(seed, i)'s first
  // draw.
  std::vector<double> expected;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Rng rng = mc::substream(99, i);
    expected.push_back(run_ablation(fleet, jobs_for_seed(rng.next_u64()),
                                    {"greedy-lowest-ci"})
                           .policies[0]
                           .savings_pct);
  }
  const mc::Distribution manual(std::move(expected));
  EXPECT_EQ(d1[1].p05(), manual.p05());
  EXPECT_EQ(d1[1].p50(), manual.p50());
  EXPECT_EQ(d1[1].p95(), manual.p95());
}

}  // namespace
}  // namespace hpcarbon::fleetsim
