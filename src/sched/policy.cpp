#include "sched/policy.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "core/error.h"
#include "grid/forecast.h"

namespace hpcarbon::sched {

double ClusterView::job_carbon_g(std::size_t i, Power it_power, double start,
                                 double duration) const {
  return (*sites_)[i].region->integrator.carbon_g(
      it_power.to_kilowatts(), epoch_.index() + start, duration);
}

long ClusterView::lowest_ci_free_site() const {
  long best = -1;
  double best_ci = 0;
  for (std::size_t s = 0; s < sites_->size(); ++s) {
    if ((*free_slots_)[s] <= 0) continue;
    const double ci = current_ci(s);
    // Strict '<': on equal CI the first (lowest-index) free site wins, so
    // ties are deterministic and home (index 0) is preferred.
    if (best < 0 || ci < best_ci) {
      best = static_cast<long>(s);
      best_ci = ci;
    }
  }
  return best;
}

namespace {

using Outlook = grid::DiurnalTemplateForecast::Outlook;

/// The outlook `forecast` makes at `origin`, kept in `kept` and rebuilt
/// only when the origin moves: a forecast policy prices every job, site
/// and start offset within one simulated hour from one outlook.
const Outlook& kept_outlook(const grid::DiurnalTemplateForecast& forecast,
                            HourOfYear origin, std::optional<Outlook>& kept) {
  if (!kept.has_value() || kept->origin() != origin) {
    kept = forecast.outlook(origin);
  }
  return *kept;
}

// ---------------------------------------------------------------------------
// Built-in policies. Each is one small class; its row in the table at the
// bottom of this file is the only other place a policy appears.
// ---------------------------------------------------------------------------

/// Everything runs at home, first come first served (carbon-unaware
/// baseline and the savings denominator of every ablation).
class FcfsLocalPolicy : public SchedulingPolicy {
 public:
  explicit FcfsLocalPolicy(const PolicyConfig&) {}
  std::string name() const override { return "fcfs-local"; }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty() || view.free_slots(0) <= 0) return std::nullopt;
    return DispatchDecision{0, 0};
  }
};

/// At dispatch, take the free site with the lowest current intensity
/// (cross-region exploitation of Fig. 7), paying the transfer penalty on
/// remote placement.
class GreedyLowestCiPolicy : public SchedulingPolicy {
 public:
  explicit GreedyLowestCiPolicy(const PolicyConfig&) {}
  std::string name() const override { return "greedy-lowest-ci"; }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty()) return std::nullopt;
    const long site = view.lowest_ci_free_site();
    if (site < 0) return std::nullopt;
    return DispatchDecision{0, static_cast<std::size_t>(site)};
  }
};

/// Stay local but defer until the local intensity drops below a threshold
/// or a maximum delay passes (temporal exploitation of Fig. 6's variance).
class ThresholdDelayPolicy : public SchedulingPolicy {
 public:
  explicit ThresholdDelayPolicy(const PolicyConfig& cfg)
      : threshold_(cfg.ci_threshold_g_per_kwh),
        max_delay_(cfg.max_delay_hours) {}
  std::string name() const override { return "threshold-delay"; }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty() || view.free_slots(0) <= 0) return std::nullopt;
    // The front job has waited longest (select's queue contract), so it
    // is overdue whenever any queued job is.
    if (view.current_ci(0) <= threshold_ ||
        view.now() - view.job(queue.front()).submit_hour >= max_delay_) {
      return DispatchDecision{0, 0};
    }
    return std::nullopt;
  }

 private:
  double threshold_;
  double max_delay_;
};

/// GreedyLowestCi placement with queue priority for users who have been
/// economical with their carbon budget (the paper's incentive proposal).
class BudgetAwarePolicy : public SchedulingPolicy {
 public:
  explicit BudgetAwarePolicy(const PolicyConfig& cfg)
      : user_budget_(cfg.user_budget) {}
  std::string name() const override { return "budget-aware"; }
  void begin_run(const std::vector<Job>& arrivals, CarbonBudgetLedger& ledger,
                 const ClusterView&) override {
    // Exactly the users with a job get an allocation; an idle user in the
    // name table keeps 0.
    for (const auto& j : arrivals) ledger.set_allocation(j.user, user_budget_);
  }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty()) return std::nullopt;
    const long site = view.lowest_ci_free_site();
    if (site < 0) return std::nullopt;
    // Serve the waiting job whose user has been most economical; strict
    // '>' keeps the earliest submission ahead on equal priority. One
    // ledger read by user index per job: the best priority so far stays
    // in a local.
    std::size_t best = 0;
    double best_priority =
        view.ledger().priority(view.job(queue.front()).user);
    for (std::size_t i = 1; i < queue.size(); ++i) {
      const double priority = view.ledger().priority(view.job(queue[i]).user);
      if (priority > best_priority) {
        best = i;
        best_priority = priority;
      }
    }
    return DispatchDecision{best, static_cast<std::size_t>(site)};
  }

 private:
  Mass user_budget_;
};

/// On arrival, pick the start offset (within the delay budget) that a
/// causal diurnal-template forecast of the home grid predicts to be
/// cleanest over the job's runtime.
class ForecastDelayPolicy : public SchedulingPolicy {
 public:
  explicit ForecastDelayPolicy(const PolicyConfig& cfg)
      : max_delay_(cfg.max_delay_hours) {}
  std::string name() const override { return "forecast-delay"; }
  void begin_run(const std::vector<Job>& arrivals, CarbonBudgetLedger&,
                 const ClusterView&) override {
    outlook_.reset();
    arrivals_ = arrivals.data();
    planned_.assign(arrivals.size(), 0.0);
  }
  double planned_start(const Job& job, const ClusterView& view) override {
    const Outlook& outlook =
        kept_outlook(view.site(0).region->forecast,
                     view.hour_at(job.submit_hour), outlook_);
    int best_offset = 0;
    double best_ci = std::numeric_limits<double>::infinity();
    const int max_w = static_cast<int>(max_delay_);
    for (int w = 0; w <= max_w; ++w) {
      const double ci = outlook.predict_window(w, job.duration_hours);
      if (ci < best_ci) {
        best_ci = ci;
        best_offset = w;
      }
    }
    // `job` is an element of begin_run's arrivals (planned_start's
    // contract), so the offset is its arrival index.
    const double plan = job.submit_hour + best_offset;
    planned_[static_cast<std::size_t>(&job - arrivals_)] = plan;
    return plan;
  }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (view.free_slots(0) <= 0) return std::nullopt;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      // Exact: on the tick clock both sides are multiples of 1/1024 h.
      if (view.now() >= planned_[queue[i].arrival]) {
        return DispatchDecision{i, 0};
      }
    }
    return std::nullopt;
  }

 private:
  double max_delay_;
  std::optional<Outlook> outlook_;  // the home site's, at the last origin
  const Job* arrivals_ = nullptr;   // begin_run's arrivals
  std::vector<double> planned_;     // planned start, by arrival index
};

/// Cross-region dispatch only when the current intensity gap times the
/// job's energy exceeds the transfer carbon (Insight 7's tradeoff). If
/// home is full, take the best remote anyway (work conservation).
class NetBenefitPolicy : public SchedulingPolicy {
 public:
  explicit NetBenefitPolicy(const PolicyConfig&) {}
  std::string name() const override { return "net-benefit"; }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty()) return std::nullopt;
    const long best = view.lowest_ci_free_site();
    if (best < 0) return std::nullopt;
    std::size_t site = static_cast<std::size_t>(best);
    if (view.free_slots(0) > 0 && site != 0) {
      const Job& j = view.job(queue.front());
      const double ci_home = view.current_ci(0);
      const double ci_away = view.current_ci(site);
      const double job_kwh =
          j.it_power.to_kilowatts() * j.duration_hours * view.pue_base();
      const double saved = (ci_home - ci_away) * job_kwh;
      const double transfer_cost =
          view.site(site).transfer_energy.to_kwh() * ci_away;
      if (saved <= transfer_cost) site = 0;
    }
    return DispatchDecision{0, site};
  }
};

/// NetBenefit with foresight: each candidate site is priced on a causal
/// diurnal forecast of its intensity over the job's whole runtime, not the
/// instantaneous value, so a site that is briefly clean now but trending
/// dirty loses to one trending clean. Only expressible with per-site
/// forecasts — the capability the engine/policy split adds.
class ForecastNetBenefitPolicy : public SchedulingPolicy {
 public:
  explicit ForecastNetBenefitPolicy(const PolicyConfig&) {}
  std::string name() const override { return "forecast-net-benefit"; }
  void begin_run(const std::vector<Job>&, CarbonBudgetLedger&,
                 const ClusterView& view) override {
    outlooks_.assign(view.site_count(), std::nullopt);
  }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (queue.empty()) return std::nullopt;
    const Job& j = view.job(queue.front());
    const double job_kwh =
        j.it_power.to_kilowatts() * j.duration_hours * view.pue_base();
    const HourOfYear origin = view.hour_at(view.now());
    long best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < view.site_count(); ++s) {
      if (view.free_slots(s) <= 0) continue;
      const double predicted_ci =
          kept_outlook(view.site(s).region->forecast, origin, outlooks_[s])
              .predict_window(0, j.duration_hours);
      const double transfer_g =
          s == 0 ? 0.0
                 : view.site(s).transfer_energy.to_kwh() * view.current_ci(s);
      const double cost = predicted_ci * job_kwh + transfer_g;
      // Strict '<': equal forecast cost resolves to the lowest site index.
      if (cost < best_cost) {
        best = static_cast<long>(s);
        best_cost = cost;
      }
    }
    if (best < 0) return std::nullopt;
    return DispatchDecision{0, static_cast<std::size_t>(best)};
  }

 private:
  std::vector<std::optional<Outlook>> outlooks_;  // by site, at the last origin
};

/// Throttle dispatch while the rolling emission rate exceeds a cap: a
/// facility-level carbon budget burned per hour. Jobs still start once
/// they have waited out `max_delay_hours` (work conservation / fairness),
/// so the cap shapes *when* carbon is emitted rather than whether work
/// runs. Needs the on_job_started observer the policy interface adds.
class RenewableCapPolicy : public SchedulingPolicy {
 public:
  explicit RenewableCapPolicy(const PolicyConfig& cfg)
      : cap_g_per_hour_(cfg.burn_cap_g_per_hour),
        window_hours_(cfg.burn_window_hours),
        max_delay_(cfg.max_delay_hours) {
    HPC_REQUIRE(cap_g_per_hour_ > 0, "burn cap must be positive");
    HPC_REQUIRE(window_hours_ > 0, "burn window must be positive");
  }
  std::string name() const override { return "renewable-cap"; }
  void begin_run(const std::vector<Job>&, CarbonBudgetLedger&,
                 const ClusterView&) override {
    recent_.clear();
  }
  void on_job_started(const Job&, std::size_t, double carbon_g,
                      const ClusterView& view) override {
    recent_.emplace_back(view.now(), carbon_g);
  }
  std::optional<DispatchDecision> select(const PendingQueue& queue,
                                         const ClusterView& view) override {
    if (view.free_slots(0) <= 0) return std::nullopt;
    while (!recent_.empty() &&
           recent_.front().first < view.now() - window_hours_) {
      recent_.pop_front();
    }
    double window_g = 0;
    for (const auto& [when, grams] : recent_) {
      (void)when;
      window_g += grams;
    }
    const bool over_cap = window_g / window_hours_ > cap_g_per_hour_;
    if (queue.empty()) return std::nullopt;
    // As in ThresholdDelay, the front job is overdue whenever any is.
    if (!over_cap ||
        view.now() - view.job(queue.front()).submit_hour >= max_delay_) {
      return DispatchDecision{0, 0};
    }
    return std::nullopt;
  }

 private:
  double cap_g_per_hour_;
  double window_hours_;
  double max_delay_;
  std::deque<std::pair<double, double>> recent_;  // (start time, grams)
};

template <class Policy>
std::unique_ptr<SchedulingPolicy> make(const PolicyConfig& cfg) {
  return std::make_unique<Policy>(cfg);
}

}  // namespace

const std::vector<PolicyDescriptor>& registered_policies() {
  static const std::vector<PolicyDescriptor> table = {
      {"fcfs-local", "fcfs",
       "Run everything at the home site, first come first served "
       "(carbon-unaware baseline)",
       {},
       make<FcfsLocalPolicy>},
      {"greedy-lowest-ci", "greedy",
       "Dispatch to the free site with the lowest current carbon intensity",
       {},
       make<GreedyLowestCiPolicy>},
      {"threshold-delay", "threshold",
       "Defer locally until CI drops below a threshold or the delay budget "
       "expires",
       {{"ci_threshold_g_per_kwh", "run when local CI is at or below this",
         PolicyConfig{}.ci_threshold_g_per_kwh},
        {"max_delay_hours", "hard cap on added queue delay",
         PolicyConfig{}.max_delay_hours}},
       make<ThresholdDelayPolicy>},
      {"budget-aware", "budget",
       "Greedy placement; queue priority for users economical with their "
       "carbon budget",
       {{"user_budget (kg)", "per-user allocation for the horizon",
         PolicyConfig{}.user_budget.to_kilograms()}},
       make<BudgetAwarePolicy>},
      {"forecast-delay", "forecast",
       "Plan each start at the offset a causal diurnal forecast predicts "
       "cleanest",
       {{"max_delay_hours", "start-offset search window",
         PolicyConfig{}.max_delay_hours}},
       make<ForecastDelayPolicy>},
      {"net-benefit", "net-benefit",
       "Go remote only when the CI gap times job energy beats the transfer "
       "carbon",
       {},
       make<NetBenefitPolicy>},
      {"forecast-net-benefit", "forecast-nb",
       "Net-benefit dispatch priced on per-site forecasts over the job's "
       "runtime",
       {},
       make<ForecastNetBenefitPolicy>},
      {"renewable-cap", "cap",
       "Throttle dispatch while the rolling emission rate exceeds a burn cap",
       {{"burn_cap_g_per_hour", "rolling emission-rate ceiling",
         PolicyConfig{}.burn_cap_g_per_hour},
        {"burn_window_hours", "window the burn rate is averaged over",
         PolicyConfig{}.burn_window_hours},
        {"max_delay_hours", "fairness guard: start anyway after this wait",
         PolicyConfig{}.max_delay_hours}},
       make<RenewableCapPolicy>},
  };
  return table;
}

const PolicyDescriptor* find_policy(std::string_view name_or_short) {
  for (const auto& e : registered_policies()) {
    if (e.name == name_or_short || e.short_name == name_or_short) return &e;
  }
  return nullptr;
}

std::unique_ptr<SchedulingPolicy> make_policy(const std::string& name,
                                              const PolicyConfig& cfg) {
  if (const PolicyDescriptor* desc = find_policy(name)) return desc->make(cfg);
  std::string known;
  for (const auto& e : registered_policies()) {
    known += (known.empty() ? "" : ", ") + e.name;
  }
  throw Error("unknown policy '" + name + "' (known: " + known + ")");
}

}  // namespace hpcarbon::sched
