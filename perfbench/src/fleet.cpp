// fleet-policies: eight seeded diurnal fleets replayed through
// fleetsim::FleetEngine::run under four policies, no serving layer.
#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#include "calib.h"
#include "fleetsim/workload.h"
#include "gen.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "rng.h"
#include "workloads.h"

namespace perfbench {

namespace sched = hpcarbon::sched;
namespace fleetsim = hpcarbon::fleetsim;

namespace {

template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += seconds_since(t0);
  } else {
    auto r = f();
    acc += seconds_since(t0);
    return r;
  }
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// ScheduleMetrics digests of kPinnedSeed at the fleet-policies shape.
/// A change here means the simulator's answers changed.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> d = {
      {"fcfs-local", 0x3cdc0266c7578cbc},
      {"greedy-lowest-ci", 0x269acee92d248bab},
      {"threshold-delay", 0x6176b0f6cfa59b62},
      {"forecast-net-benefit", 0x255dbefbecced622},
  };
  return d;
}

/// Light requests per heavy request (a light request takes milliseconds,
/// a heavy one about a hundred times longer).
constexpr int kLightPerRound = 4;

/// Set-ups per run; the median is reported.
constexpr int kSetups = 9;

/// Fleets per run. Fleet 0 is drawn from the run's seed, the others from
/// seeds derived from it. The timed rounds replay them in turn, so a run's
/// figures rest on eight fleets and depend less on which seed it drew:
/// one fleet's forecast-net-benefit replay alone differed by a fifth from
/// seed to seed, and with four fleets light p50 still spread by 0.09 of
/// its median across seeds.
constexpr std::size_t kFleets = 8;

struct Replay {
  double seconds = 0;
  sched::ScheduleMetrics metrics;
};

}  // namespace

void TimedPolicy::begin_run(const std::vector<sched::Job>& arrivals,
                            sched::CarbonBudgetLedger& ledger,
                            const sched::ClusterView& view) {
  timed(counters_.begin_run_s,
        [&] { inner_->begin_run(arrivals, ledger, view); });
}

double TimedPolicy::planned_start(const sched::Job& job,
                                  const sched::ClusterView& view) {
  ++counters_.planned_start_calls;
  return timed(counters_.planned_start_s,
               [&] { return inner_->planned_start(job, view); });
}

std::optional<sched::DispatchDecision> TimedPolicy::select(
    const std::vector<sched::PendingJob>& queue,
    const sched::ClusterView& view) {
  ++counters_.select_calls;
  counters_.queue_sum += queue.size();
  counters_.queue_max =
      std::max<std::uint64_t>(counters_.queue_max, queue.size());
  auto d = timed(counters_.select_s, [&] { return inner_->select(queue, view); });
  if (d) ++counters_.decisions;
  return d;
}

void TimedPolicy::on_job_started(const sched::Job& job, std::size_t site,
                                 double carbon_g,
                                 const sched::ClusterView& view) {
  ++counters_.started_calls;
  timed(counters_.on_job_started_s,
        [&] { inner_->on_job_started(job, site, carbon_g, view); });
}

bool same_metrics(const sched::ScheduleMetrics& a,
                  const sched::ScheduleMetrics& b) {
  return bits(a.total_carbon.to_grams()) == bits(b.total_carbon.to_grams()) &&
         bits(a.transfer_carbon.to_grams()) ==
             bits(b.transfer_carbon.to_grams()) &&
         bits(a.total_energy.to_kwh()) == bits(b.total_energy.to_kwh()) &&
         bits(a.mean_wait_hours) == bits(b.mean_wait_hours) &&
         bits(a.p95_wait_hours) == bits(b.p95_wait_hours) &&
         bits(a.utilization) == bits(b.utilization) &&
         a.jobs_completed == b.jobs_completed &&
         a.remote_dispatches == b.remote_dispatches;
}

bool same_outcomes(const fleetsim::FleetOutcomes& a,
                   const fleetsim::FleetOutcomes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.job_id[i] != b.job_id[i] || a.site[i] != b.site[i] ||
        a.start[i] != b.start[i] ||
        bits(a.wait_hours[i]) != bits(b.wait_hours[i]) ||
        bits(a.carbon_g[i]) != bits(b.carbon_g[i])) {
      return false;
    }
  }
  return true;
}

std::uint64_t metrics_digest(const sched::ScheduleMetrics& m) {
  const std::uint64_t fields[] = {
      bits(m.total_carbon.to_grams()),
      bits(m.transfer_carbon.to_grams()),
      bits(m.total_energy.to_kwh()),
      bits(m.mean_wait_hours),
      bits(m.p95_wait_hours),
      bits(m.utilization),
      static_cast<std::uint64_t>(m.jobs_completed),
      static_cast<std::uint64_t>(m.remote_dispatches)};
  return digest(std::string_view(reinterpret_cast<const char*>(fields),
                                 sizeof fields));
}

fleetsim::FleetEngine make_fleet_engine(int slots) {
  // fig7_regions() order: ESO, CISO, ERCOT.
  const auto traces = hpcarbon::grid::generate_traces(
      hpcarbon::grid::fig7_regions());
  std::vector<sched::Site> sites = {sched::make_site("ERCOT", traces[2], slots),
                                    sched::make_site("ESO", traces[0], slots),
                                    sched::make_site("CISO", traces[1], slots)};
  return fleetsim::FleetEngine(std::move(sites), hpcarbon::HourOfYear(3624));
}

Report run_fleet(const FleetConfig& cfg, const RunOptions& opt) {
  Report rep;
  std::vector<fleetsim::FleetWorkloadParams> wp;
  for (std::size_t f = 0; f < kFleets; ++f) {
    wp.push_back(fleet_params(
        cfg.shape, f == 0 ? opt.seed : derive_seed(opt.seed, 0xF1EE70 + f)));
  }

  // Set-up: traces, engine, the fleets' jobs; kSetups times, the last one
  // kept. Each set-up time is scaled by the host probe (calib.h) run
  // before and after it.
  HostProbe probe;
  double probe_before = probe.seconds();
  std::vector<double> setup_s, gen_s, probe_s = {probe_before};
  std::unique_ptr<fleetsim::FleetEngine> engine;
  std::vector<fleetsim::FleetJobs> fleets(kFleets);
  // Reference time per second measured now, from the probes before and
  // after the timed stretch that ends here.
  auto scale = [&] {
    probe_s.push_back(probe.seconds());
    const double f = 2 * kProbeReferenceS / (probe_before + probe_s.back());
    probe_before = probe_s.back();
    return f;
  };
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    engine = std::make_unique<fleetsim::FleetEngine>(
        make_fleet_engine(cfg.shape.slots_per_site));
    double g = 0;
    for (std::size_t f = 0; f < kFleets; ++f) {
      fleets[f] = timed(g, [&] { return fleetsim::generate_fleet_jobs(wp[f]); });
    }
    gen_s.push_back(g);
    const double s = seconds_since(t0);
    setup_s.push_back(s * scale());
  }
  std::size_t fleet = 0;  // the fleet being replayed

  // Replays of a policy must agree bit for bit, per fleet ("policy@fleet").
  std::map<std::string, sched::ScheduleMetrics> reference;
  std::size_t jobs_submitted = 0, jobs_completed = 0;
  auto check = [&](const std::string& policy,
                   const sched::ScheduleMetrics& m) {
    const fleetsim::FleetJobs& jobs = fleets[fleet];
    ++rep.attempted;
    jobs_submitted += jobs.size();
    jobs_completed += static_cast<std::size_t>(m.jobs_completed);
    bool ok = static_cast<std::size_t>(m.jobs_completed) == jobs.size();
    if (!ok) {
      rep.problems.push_back(policy + " completed " +
                             std::to_string(m.jobs_completed) + " of " +
                             std::to_string(jobs.size()) + " jobs");
    }
    const auto [it, fresh] =
        reference.emplace(policy + "@" + std::to_string(fleet), m);
    if (!fresh && !same_metrics(it->second, m)) {
      ok = false;
      rep.problems.push_back(policy + " replays disagree");
    }
    if (!ok) {
      ++rep.failed;
      rep.correct = false;
    }
  };
  auto replay = [&](const std::string& policy,
                    fleetsim::FleetOutcomes* outcomes = nullptr) {
    auto p = sched::make_policy(policy);
    Replay r;
    r.metrics = timed(r.seconds,
                      [&] { return engine->run(fleets[fleet], *p, outcomes); });
    check(policy, r.metrics);
    return r;
  };

  std::vector<std::string> all = cfg.light_policies;
  all.insert(all.end(), cfg.heavy_policies.begin(), cfg.heavy_policies.end());
  Metrics& m = rep.metrics;

  if (!opt.trace) {
    // A light request replays the light policies back to back, a heavy
    // one the heavy policies; each request's wall time is one sample.
    // Rounds of kLightPerRound light requests and one heavy request repeat
    // until --seconds is spent, so both kinds are sampled across the whole
    // run. Each round replays the next fleet, and the run ends on a whole
    // cycle of fleets, so each counts the same.
    // Rounds move from CPU to CPU, and each fleet visits every CPU: a CPU
    // that other tenants of the host slow down for a while then weighs the
    // same in every run. Each request's times are scaled by the host probe
    // run just before and just after it on the same CPU.
    auto request = [&](const std::vector<std::string>& set) {
      double total = 0;
      for (const auto& p : set) total += replay(p).seconds;
      return total * scale() * 1e6;
    };
    // Request times by fleet. A fleet's requests cost alike and the fleets
    // differ, so each percentile is taken per fleet and then averaged over
    // the fleets: a median over all of them would jump from one fleet's
    // cluster to another's with the number of rounds a run fits.
    std::vector<std::vector<double>> light(kFleets), heavy(kFleets);
    const std::vector<int> cpus = allowed_cpus();
    const auto t0 = Clock::now();
    for (std::size_t round = 0;
         seconds_since(t0) < opt.seconds || round % kFleets != 0; ++round) {
      fleet = round % kFleets;
      pin_to(cpus[(round + round / kFleets) % cpus.size()]);
      probe_before = probe.seconds();  // on the new CPU
      for (int k = 0; k < kLightPerRound; ++k) {
        light[fleet].push_back(request(cfg.light_policies));
      }
      heavy[fleet].push_back(request(cfg.heavy_policies));
    }
    auto fleet_mean_median = [](const std::vector<std::vector<double>>& by) {
      double sum = 0;
      for (const auto& v : by) sum += median(v);
      return sum / static_cast<double>(by.size());
    };
    m["light_p50_us"] = {fleet_mean_median(light), "us"};
    m["heavy_p50_us"] = {fleet_mean_median(heavy), "us"};
    m["ok_share"] = {jobs_submitted > 0
                         ? static_cast<double>(jobs_completed) /
                               static_cast<double>(jobs_submitted)
                         : 0.0,
                     "ratio"};
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    // Plain and decorated runs of fleet 0 alternate; the decorated one must
    // be bit-identical, outcomes included.
    double plain_total = 0, decorated_total = 0, log_rate_sum = 0;
    std::ostringstream spans;
    const auto t_origin = Clock::now();
    auto since_ns = [&t_origin] {
      return static_cast<long long>(seconds_since(t_origin) * 1e9);
    };
    std::size_t span_id = 0;
    for (const auto& p : all) {
      std::vector<double> plain_s, decorated_s, self_s;
      PolicyCounters counters;
      for (int rep_i = 0; rep_i < 5; ++rep_i) {
        fleetsim::FleetOutcomes plain_out, dec_out;
        const long long a0 = since_ns();
        const Replay plain = replay(p, &plain_out);
        const long long a1 = since_ns();
        TimedPolicy timed_policy(sched::make_policy(p));
        double dec = 0;
        const sched::ScheduleMetrics dm = timed(
            dec, [&] { return engine->run(fleets[0], timed_policy, &dec_out); });
        const long long a2 = since_ns();
        check(p, dm);
        if (!same_outcomes(plain_out, dec_out)) {
          rep.correct = false;
          rep.problems.push_back(p + ": decorated run differs from plain run");
        }
        spans << span_id++ << ",-1,fleetsim.run." << p << "," << a0 << ","
              << a1 << "\n";
        spans << span_id++ << ",-1,fleetsim.run_decorated." << p << "," << a1
              << "," << a2 << "\n";
        plain_s.push_back(plain.seconds);
        decorated_s.push_back(dec);
        self_s.push_back(dec - timed_policy.counters().callbacks_s());
        counters = timed_policy.counters();
        if (plain.seconds + dec > 0.5) break;  // expensive policies run once
      }
      plain_total += median(plain_s);
      log_rate_sum += std::log(static_cast<double>(fleets[0].size()) /
                               median(plain_s));
      decorated_total += median(decorated_s);
      const std::string f = "fleetsim." + p + ".";
      const std::string s = "sched.policy." + p + ".";
      m[f + "run_s"] = {median(plain_s), "s"};
      m[f + "engine_self_s"] = {median(self_s), "s"};
      m[f + "queue_len_mean"] = {
          counters.select_calls > 0
              ? static_cast<double>(counters.queue_sum) /
                    static_cast<double>(counters.select_calls)
              : 0.0,
          "count"};
      m[f + "queue_len_max"] = {static_cast<double>(counters.queue_max),
                                "count"};
      m[s + "select_calls"] = {static_cast<double>(counters.select_calls),
                               "count"};
      m[s + "select_s"] = {counters.select_s, "s"};
      m[s + "planned_start_s"] = {counters.planned_start_s, "s"};
      m[s + "dispatch_ratio"] = {
          counters.select_calls > 0
              ? static_cast<double>(counters.decisions) /
                    static_cast<double>(counters.select_calls)
              : 0.0,
          "ratio"};
    }
    m["fleetsim.gen_s"] = {median(gen_s), "s"};
    m["fleetsim.jobs_per_s"] = {
        std::exp(log_rate_sum / static_cast<double>(all.size())), "1/s"};
    m["trace.overhead_pct"] = {
        plain_total > 0 ? 100.0 * (decorated_total - plain_total) / plain_total
                        : 0.0,
        "pct"};
    if (!opt.trace_dir.empty()) {
      std::ofstream f(opt.trace_dir + "/spans-" + cfg.name + ".csv");
      f << "span,parent,name,start_ns,end_ns\n" << spans.str();
    }
  }

  // Pinned answers: fleet 0 of the default seed must not drift.
  std::ostringstream digests;
  for (const auto& [key, metrics] : reference) {
    const std::uint64_t d = metrics_digest(metrics);
    digests << (digests.tellp() > 0 ? "," : "") << "\"" << key << "\":\""
            << std::hex << d << std::dec << "\"";
    const std::string policy = key.substr(0, key.rfind('@'));
    if (opt.seed != kPinnedSeed || key != policy + "@0") continue;
    const auto it = pinned_digests().find(policy);
    if (it != pinned_digests().end() && it->second != 0 && it->second != d) {
      rep.correct = false;
      rep.problems.push_back(policy + ": ScheduleMetrics digest changed");
    }
  }

  std::ostringstream c;
  c << "{\"workload\":\"" << cfg.name << "\",\"seed\":" << opt.seed
    << ",\"seconds\":" << json_number(opt.seconds) << ",\"trace\":" << opt.trace
    << ",\"fleets\":" << kFleets << ",\"jobs\":[";
  for (std::size_t f = 0; f < kFleets; ++f) {
    c << (f ? "," : "") << fleets[f].size();
  }
  c << "]"
    << ",\"nodes\":" << engine->capacity_total()
    << ",\"slots_per_site\":" << cfg.shape.slots_per_site
    << ",\"sites\":[\"ERCOT\",\"ESO\",\"CISO\"],\"process\":\"diurnal\""
    << ",\"rate_per_hour\":" << json_number(cfg.shape.rate_per_hour)
    << ",\"days\":" << json_number(cfg.shape.days) << ",\"threads\":1"
    << ",\"replays\":" << rep.attempted
    << ",\"probe_ms\":" << json_number(median(probe_s) * 1e3)
    << ",\"digests\":{" << digests.str() << "}}";
  rep.config_json = c.str();
  return rep;
}

}  // namespace perfbench
