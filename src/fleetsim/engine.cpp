#include "fleetsim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "core/error.h"
#include "core/stats.h"
#include "fleetsim/completion_heap.h"

namespace hpcarbon::fleetsim {

namespace {

obs::Counter& bind_jobs_counter(obs::MetricsRegistry& registry) {
  return registry.counter("hpcarbon_fleetsim_jobs_total", "",
                          "Jobs simulated by the fleet engine.");
}

obs::Counter& jobs_counter() {
  static obs::Counter& counter =
      bind_jobs_counter(obs::MetricsRegistry::global());
  return counter;
}

}  // namespace

void register_metrics(obs::MetricsRegistry& registry) {
  bind_jobs_counter(registry);
}

void FleetOutcomes::clear() {
  job_id.clear();
  site.clear();
  start.clear();
  wait_hours.clear();
  carbon_g.clear();
}

void FleetOutcomes::reserve(std::size_t n) {
  job_id.reserve(n);
  site.reserve(n);
  start.reserve(n);
  wait_hours.reserve(n);
  carbon_g.reserve(n);
}

FleetEngine::FleetEngine(std::vector<sched::Site> sites, HourOfYear epoch)
    : sites_(std::move(sites)), epoch_(epoch) {
  HPC_REQUIRE(!sites_.empty(), "need at least one site");
  for (const auto& s : sites_) {
    HPC_REQUIRE(s.region != nullptr, "site needs a prepared region");
    HPC_REQUIRE(s.capacity > 0, "site capacity must be positive");
  }
}

std::int64_t FleetEngine::capacity_total() const {
  std::int64_t total = 0;
  for (const auto& s : sites_) total += s.capacity;
  return total;
}

namespace {

/// (planned start tick, arrival index), min-heap on tick.
using PlannedStart = std::pair<Tick, std::size_t>;

constexpr Tick kNoEvent = std::numeric_limits<Tick>::max();

/// A trace covers one year (CarbonIntensityTrace requires it).
constexpr Tick kYearTicks = Tick{kHoursPerYear} * kTicksPerHour;

/// Reads into `ci` the intensity ClusterView::current_ci stands for at
/// engine tick `t` (the sample index_at_hours(epoch + t) names) and
/// returns the first tick at which that lookup may name another sample:
/// the sample's end rounded down to a tick, and at least t + 1. The end
/// is exact for steps of whole seconds and within far less than a tick
/// for any other, so rounding down never passes the tick at which the
/// lookup moves on. A read before that tick (a 5-minute sample ends
/// between two ticks) finds the same sample and is retried one tick
/// later, as is a read on an exact boundary, where the double division
/// can still name the old sample.
Tick read_intensity(const StepSeries& series, Tick epoch_tick, Tick t,
                    double& ci) {
  const Tick local = epoch_tick + t;
  const std::size_t i = series.index_at_hours(hours_of(local));
  ci = series.values()[i];
  const auto end = static_cast<Tick>(
      std::floor(static_cast<double>(i + 1) * series.step_seconds() *
                 static_cast<double>(kTicksPerHour) / kSecondsPerHour));
  return t + std::max<Tick>(1, end - local % kYearTicks);
}

}  // namespace

sched::ScheduleMetrics FleetEngine::run(const FleetJobs& jobs,
                                        sched::SchedulingPolicy& policy,
                                        FleetOutcomes* outcomes,
                                        sched::CarbonBudgetLedger* ledger_out)
    const {
  if (jobs.empty()) {
    if (ledger_out != nullptr) *ledger_out = sched::CarbonBudgetLedger{};
    if (outcomes != nullptr) outcomes->clear();
    return sched::ScheduleMetrics{};
  }
  const std::size_t n = jobs.size();
  // Policies and the view read the fleet's own arrivals: the constructor
  // already checked and sorted them and put their times on the tick grid,
  // so a run neither re-checks nor copies a job. They outlive the run, so
  // a queued sched::PendingJob holds only its arrival index, and policies
  // read the job through the view.
  const std::vector<sched::Job>& arrivals = jobs.arrivals();

  sched::CarbonBudgetLedger ledger;
  std::vector<int> free_slots;
  free_slots.reserve(sites_.size());
  for (const auto& s : sites_) free_slots.push_back(s.capacity);

  std::vector<sched::PendingJob> waiting;
  // A job that starts at its submit tick (on time) completes at its
  // natural tick, so the fleet's natural order (FleetJobs::natural_position)
  // already ranks it: its site is kept at its position, whose bit stays set
  // until the slot is freed. Only a job that starts later goes through the
  // completion heap. A start completes after every completion due by now,
  // so every set bit lies past the positions already freed: the first set
  // bit is the next on-time completion, due at natural_next.
  std::vector<std::uint32_t> on_time_site(n);  // by natural position
  std::vector<std::uint64_t> on_time_bits((n + 63) / 64);
  std::size_t on_time_running = 0;  // bits set
  std::size_t on_time_first = 0;    // the first set bit, while one is
  Tick natural_next = kNoEvent;
  // The first set bit past position p, which must exist. Empty words are
  // skipped 64 positions at a time, so the positions of late and unstarted
  // jobs cost no visit of their own.
  auto on_time_after = [&](std::size_t p) {
    std::size_t w = (p + 1) / 64;
    std::uint64_t word =
        on_time_bits[w] & (~std::uint64_t{0} << (p + 1) % 64);
    while (word == 0) word = on_time_bits[++w];
    return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
  };
  // Completions at one tick leave in site order, but all those due free
  // their slots before any decision is consulted, so tie order is
  // unobservable.
  CompletionHeap completions(sites_.size());
  // Plans that were ahead of the clock on arrival. Once stale entries
  // (tick passed, or job started early) are popped, the top is the
  // earliest planned start of a still-queued job ahead of the clock.
  std::priority_queue<PlannedStart, std::vector<PlannedStart>,
                      std::greater<PlannedStart>>
      planned_starts;
  std::vector<char> started(n, 0);  // by arrival index

  sched::ScheduleMetrics metrics;
  std::vector<double> waits;
  waits.reserve(n);
  if (outcomes != nullptr) {
    outcomes->clear();
    outcomes->reserve(n);
  }
  double busy_node_hours = 0;
  double makespan = 0;
  double total_grams = 0;
  double transfer_grams = 0;
  double total_kwh = 0;

  std::size_t next_arrival = 0;
  Tick t = 0;
  double t_hours = 0;  // always hours_of(t); the view's double clock
  const Tick epoch_tick = Tick{epoch_.index()} * kTicksPerHour;

  // Each site's intensity at t, for ClusterView::current_ci. Re-read for
  // every site when t reaches the earliest tick at which a site's sample
  // may have ended (about once per sample), not on every event.
  std::vector<double> current_ci(sites_.size());
  Tick ci_refresh = 0;
  auto refresh_ci = [&] {
    ci_refresh = kNoEvent;
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      ci_refresh = std::min(
          ci_refresh, read_intensity(sites_[s].region->trace_utc.series(),
                                     epoch_tick, t, current_ci[s]));
    }
  };
  refresh_ci();

  const sched::ClusterView view(sites_, arrivals, free_slots, current_ci,
                                ledger, pue_, t_hours, epoch_);

  policy.begin_run(arrivals, ledger, view);

  // Accounting runs in a fixed order on exact tick-derived doubles, so a
  // run is bit-reproducible (tests/reference_engine.h evaluates the same
  // expressions in the same order; test_fleetsim pins the two bitwise).
  auto start_job = [&](std::uint32_t a, std::size_t site) {
    const sched::Job& j = arrivals[a];
    const Tick now_tick = t;
    const Tick duration_tick = jobs.duration_tick(a);
    const double now = t_hours;
    --free_slots[site];
    if (now_tick == jobs.submit_tick(a)) {
      const std::uint32_t p = jobs.natural_position(a);
      on_time_site[p] = static_cast<std::uint32_t>(site);
      on_time_bits[p / 64] |= std::uint64_t{1} << p % 64;
      if (on_time_running++ == 0 || p < on_time_first) {
        on_time_first = p;
        natural_next = now_tick + duration_tick;
      }
    } else {
      completions.push(now_tick + duration_tick,
                       static_cast<std::uint32_t>(site));
    }
    // ClusterView::job_carbon_g's product, priced from the ticks.
    const double grams =
        j.it_power.to_kilowatts() *
        sites_[site].region->integrator.weighted_sum_ticks(
            epoch_tick + now_tick, duration_tick);
    const double kwh =
        j.it_power.to_kilowatts() * j.duration_hours * pue_.base();
    double tgrams = 0;
    if (site != 0) {
      ++metrics.remote_dispatches;
      tgrams = sites_[site].transfer_energy.to_kwh() * view.current_ci(site);
      total_kwh += sites_[site].transfer_energy.to_kwh();
    }
    total_grams += grams + tgrams;
    transfer_grams += tgrams;
    total_kwh += kwh;
    busy_node_hours += j.duration_hours;
    makespan = std::max(makespan, now + j.duration_hours);
    const double wait = now - j.submit_hour;
    waits.push_back(wait);
    ledger.charge(j.user, Mass::grams(grams + tgrams));
    if (outcomes != nullptr) {
      outcomes->job_id.push_back(static_cast<std::int32_t>(j.id));
      outcomes->site.push_back(static_cast<std::uint32_t>(site));
      outcomes->start.push_back(now_tick);
      outcomes->wait_hours.push_back(wait);
      outcomes->carbon_g.push_back(grams + tgrams);
    }
    ++metrics.jobs_completed;
    policy.on_job_started(j, site, grams + tgrams, view);
  };

  auto dispatch = [&] {
    while (!waiting.empty()) {
      const auto decision = policy.select(waiting, view);
      if (!decision.has_value()) return;
      HPC_REQUIRE(decision->queue_index < waiting.size() &&
                      decision->site < sites_.size() &&
                      free_slots[decision->site] > 0,
                  "policy returned an invalid dispatch decision");
      const std::uint32_t a = waiting[decision->queue_index].arrival;
      // Entries are four trivially copyable bytes: the erase is one
      // memmove.
      waiting.erase(waiting.begin() +
                    static_cast<std::ptrdiff_t>(decision->queue_index));
      started[a] = 1;
      start_job(a, decision->site);
    }
  };

  // Event loop on the integer tick clock. While a job waits, the engine
  // wakes at arrivals, completions, hourly ticks (so delay/throttle
  // policies re-evaluate as the grid's intensity moves) and planned
  // starts. With the queue empty no callback can run before the next
  // arrival, so that is the next event; the completions due by then free
  // their slots before it is planned. The run ends once the last arrival
  // has started: every metric, outcome and ledger charge is taken at
  // start, so the completions left change no answer.
  Tick next_submit = jobs.submit_tick(0);  // kNoEvent once all arrived
  while (next_arrival < n || !waiting.empty()) {
    Tick next_tick = next_submit;
    if (!waiting.empty()) {
      // Next whole hour (t >= 0, so integer division floors).
      next_tick =
          std::min(next_tick, (t / kTicksPerHour + 1) * kTicksPerHour);
      if (!completions.empty()) {
        next_tick = std::min(next_tick, completions.top_tick());
      }
      next_tick = std::min(next_tick, natural_next);
      while (!planned_starts.empty() &&
             (planned_starts.top().first <= t ||
              started[planned_starts.top().second] != 0)) {
        planned_starts.pop();
      }
      if (!planned_starts.empty()) {
        next_tick = std::min(next_tick, planned_starts.top().first);
      }
    }
    t = std::max(t, next_tick);
    t_hours = hours_of(t);
    if (t >= ci_refresh) refresh_ci();

    while (!completions.empty() && completions.top_tick() <= t) {
      ++free_slots[completions.top_site()];
      completions.pop();
    }
    // The on-time completions due, in natural order.
    while (natural_next <= t) {
      const std::size_t p = on_time_first;
      ++free_slots[on_time_site[p]];
      on_time_bits[p / 64] &= ~(std::uint64_t{1} << p % 64);
      if (--on_time_running == 0) {
        natural_next = kNoEvent;
      } else {
        on_time_first = on_time_after(p);
        natural_next = jobs.natural_tick(on_time_first);
      }
    }
    while (next_submit <= t) {
      const double planned = policy.planned_start(arrivals[next_arrival], view);
      waiting.push_back(
          sched::PendingJob{static_cast<std::uint32_t>(next_arrival)});
      // t_hours is t / 1024 exactly and planned * 1024 is exact, so this
      // holds exactly when ceil_tick(planned) > t; a NaN plan fails it
      // instead of reaching the double-to-tick cast.
      if (planned > t_hours) {
        planned_starts.emplace(ceil_tick(planned), next_arrival);
      }
      ++next_arrival;
      next_submit = next_arrival < n ? jobs.submit_tick(next_arrival)
                                     : kNoEvent;
    }
    dispatch();
  }

  metrics.total_carbon = Mass::grams(total_grams);
  metrics.transfer_carbon = Mass::grams(transfer_grams);
  metrics.total_energy = Energy::kilowatt_hours(total_kwh);
  metrics.mean_wait_hours = stats::mean(waits);
  metrics.p95_wait_hours = stats::quantile(waits, 0.95);
  metrics.utilization =
      makespan > 0 ? busy_node_hours / (capacity_total() * makespan) : 0.0;
  if (ledger_out != nullptr) *ledger_out = ledger;
  jobs_counter().inc(n);
  return metrics;
}

}  // namespace hpcarbon::fleetsim
