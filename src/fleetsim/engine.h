// Event-heap discrete-event fleet engine: the one scheduling event loop.
//
// Every scheduler run goes through FleetEngine::run: the benches, the
// examples, and the trio ablation of fleetsim/ablation.h, through which
// `hpcarbon run`, `sweep`, `hpcarbon fleetsim` and the serve sched and
// fleetsim families build their engines and score their policies. The
// mechanism is sorted arrivals, a completion min-heap, hourly
// re-evaluation ticks while jobs queue, a planned-start min-heap, per-site
// free slots, and O(1) prefix-sum carbon. Every decision is delegated to
// a sched::SchedulingPolicy. The engine is sized for thousands of nodes
// and millions of jobs:
//
//  * integer event ticks (fleetsim/jobs.h, 1024/hour): event matching is
//    an integer compare, not a `<= t + 1e-12` epsilon, and because the
//    tick rate is a power of two every tick converts to an *exact*
//    double, so the carbon/energy/wait arithmetic reads exact times.
//    Double-hour workloads (sched::generate_jobs, the jobs CSV) enter
//    through the FleetJobs constructor, which snaps each time to the
//    nearest tick (at most 1.8 s);
//  * each job is held once: a FleetJobs is validated when it is built,
//    and every run hands its arrivals to the policy and the view in
//    place, reading a job's ticks from the fleet's 32-bit tick tables.
//    Outcomes leave as flat vectors (FleetOutcomes), not one record per
//    job;
//  * users are indexes into FleetJobs::users() for the whole run: a
//    sched::Job is 32 trivially copyable bytes, and a job start charges
//    the budget ledger (a flat vector of accounts) by index, with no
//    string compare or copy;
//  * a queue entry (sched::PendingJob) is its job's 32-bit arrival index,
//    and policies read the job through ClusterView::job: 4 trivially
//    copyable bytes, so a dispatch takes its job out of the queue with
//    one memmove of 4 bytes per entry behind it (still O(queue) bytes).
//    A fleet holds fewer than 2^32 jobs (the FleetJobs constructor
//    refuses more);
//  * a job that starts at its submit tick (on time) completes at its
//    natural tick, submit + duration, in the order FleetJobs computed
//    once per fleet (FleetJobs::natural_position). The run keeps such a
//    job's site at its position and sets the position's bit in a bitmap;
//    each event frees the on-time completions due, from the first set
//    bit on, and reads the next one's tick from the fleet. A start
//    completes after every completion already due, so its position lies
//    past every one already freed, and the next set bit is always the
//    next on-time completion. Scans skip 64 positions per empty word, so
//    the positions of late and unstarted jobs cost no visit of their own.
//    An on-time completion costs a bit test and a store instead of a
//    heap pop: greedy-lowest-ci and forecast-net-benefit start every job
//    of the fleet-policies fleets on time, fcfs-local a third of them;
//  * the other completions, late starts only, leave through a 4-ary
//    min-heap of packed 8-byte keys, `tick << site_bits | site` with
//    site_bits = bit_width(sites - 1) (fleetsim/completion_heap.h): one
//    unsigned compare orders two completions, a slot's four children are
//    32 contiguous bytes, and a pop picks the least child with
//    conditional selects instead of a data-dependent branch. A push
//    whose tick would not fit beside the site bits throws; a fleet's
//    ticks stay within kMaxJobTicks (fleetsim/jobs.h), which keeps every
//    run far inside that. Completions at one tick leave in site order,
//    and the heap's before the order's, but all those due free their
//    slots before any decision is consulted, so tie order cannot be
//    observed;
//  * a completion wakes the engine only while a job waits. With the queue
//    empty no callback can run before the next arrival, so that arrival is
//    the next event, and every completion due by then frees its slot
//    before the arrival is planned. A run ends once the last arrival has
//    started: metrics, outcomes and ledger charges are all taken at
//    start, so the completions still pending change no answer. On a
//    7.7k-job fleet-policies fleet (256 slots per site) that takes
//    greedy-lowest-ci's loop from 14.6k iterations to 7.5k and
//    fcfs-local's from 14.8k to 12.8k;
//  * an engine builds nothing per site: each sched::Site points at its
//    region's sched::PreparedRegion (the UTC year, its PUE-weighted
//    CarbonIntegrator, its median and its forecast), built once and
//    shared by every engine on that region, so assembling an engine from
//    prepared regions copies a few pointers (fleetsim::trio_engine;
//    serve::TraceStore keeps one prepared region per preset);
//  * a job start prices its carbon from the ticks it already holds:
//    kW times the site's CarbonIntegrator::weighted_sum_ticks(epoch + now,
//    duration), which is StepSeries::integral_ticks. On traces whose
//    samples span a power-of-two number of ticks (hourly, 30- and
//    15-minute) that is a shift and a mask per endpoint, and on any trace
//    it is bit-identical to the same kW times weighted_sum over double
//    hours, which the reference engine (tests/reference_engine.h) prices
//    with;
//  * each site's current intensity lives in a per-run vector that
//    ClusterView::current_ci reads inline. The engine re-reads every site
//    (the same index_at_hours(epoch + t) lookup) only when t reaches the
//    earliest tick at which some site's sample may have ended: that
//    sample's end rounded down to a tick, and at least one tick after the
//    read. So an hourly trio is read about once per simulated hour, not on
//    every event. A read that still finds the old sample (5-minute
//    samples end between ticks, and on an exact boundary the double
//    division can lag by one tick) is retried one tick later;
//  * run() is const — all mutable state is per-call, so Monte-Carlo
//    uncertainty sweeps fan one engine out across mc::Engine threads.
//
// Policies see the run through a sched::ClusterView bound to the engine's
// per-run state, with its double clock slaved to the tick clock.
// Policy-planned starts that are not tick-aligned are rounded up to the
// next tick (built-in policies plan whole-hour offsets, which are always
// aligned). A plan still ahead of the clock on arrival enters the
// planned-start heap as (tick, arrival index) and wakes the engine at
// that tick; an entry whose tick has passed or whose job already started
// is dropped when it reaches the top, so finding the next wake-up costs
// no scan of the queue. Queue entries hold no plan: a policy that reads
// its plans in select() keeps them by arrival index, as forecast-delay
// does.
//
// tests/reference_engine.h keeps the double-clock loop this engine
// replaced, pricing in hours, waking at every completion and reading every
// site's intensity whenever its clock moves; tests/test_fleetsim.cpp pins
// bit-identical metrics, outcomes, and ledgers against it on tick-aligned
// workloads for every registered policy, on hourly, 15- and 5-minute
// sites and across the year boundary, on fleets that mix on-time and late
// starts from 1 to 256 slots per site, and the same sequence of policy
// callbacks, each seeing the same clock, free slots, intensities and
// queue.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.h"
#include "fleetsim/jobs.h"
#include "obs/metrics.h"
#include "op/pue.h"
#include "sched/budget.h"
#include "sched/job.h"
#include "sched/metrics.h"
#include "sched/policy.h"

namespace hpcarbon::fleetsim {

/// Register the fleetsim instrument names (hpcarbon_fleetsim_jobs_total)
/// in `registry` so private-registry consumers expose the same metric
/// set as the process-global one. Every run records its job count into
/// MetricsRegistry::global() (so the counter covers every scheduler run
/// in the process, sched and fleetsim alike); a private registry
/// reports 0.
void register_metrics(obs::MetricsRegistry& registry);

/// Per-job outcomes in dispatch order, struct-of-arrays (a million jobs
/// are five flat vectors, not a million strings).
struct FleetOutcomes {
  std::vector<std::int32_t> job_id;
  std::vector<std::uint32_t> site;   // index into the engine's sites
  std::vector<Tick> start;
  std::vector<double> wait_hours;
  std::vector<double> carbon_g;      // compute + transfer

  std::size_t size() const { return job_id.size(); }
  void clear();
  void reserve(std::size_t n);
};

class FleetEngine {
 public:
  /// sites[0] is the home site; `epoch` anchors tick 0 on the traces'
  /// calendar (UTC). Every site needs a prepared region and a positive
  /// capacity. Jobs are priced with each region's integrator, which
  /// weights its trace by the default op::PueModel.
  FleetEngine(std::vector<sched::Site> sites, HourOfYear epoch);

  /// Run the event loop under `policy` on the fleet's arrivals, which
  /// begin_run receives as jobs.arrivals() itself. An empty fleet yields
  /// zero metrics. `ledger_out` is indexed by user; jobs.users() names
  /// the indexes.
  /// const: all simulation state is local, so concurrent runs on one
  /// engine (Monte-Carlo seed sweeps) are safe.
  sched::ScheduleMetrics run(const FleetJobs& jobs,
                             sched::SchedulingPolicy& policy,
                             FleetOutcomes* outcomes = nullptr,
                             sched::CarbonBudgetLedger* ledger_out =
                                 nullptr) const;

  const std::vector<sched::Site>& sites() const { return sites_; }
  HourOfYear epoch() const { return epoch_; }
  /// Total node slots across every site ("4k nodes" in the bench); 64
  /// bits, so sites of up to INT_MAX slots each cannot overflow it.
  std::int64_t capacity_total() const;

 private:
  std::vector<sched::Site> sites_;
  HourOfYear epoch_;
  op::PueModel pue_;  // the default, as sched::PreparedRegion weights with
};

}  // namespace hpcarbon::fleetsim
