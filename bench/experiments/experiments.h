/// \file experiments.h
/// \brief The bench experiment registry.
///
/// Every display/theorem of the paper is one registered Experiment: a
/// machine id (stable, filterable), the banner title and VERDICT-line id
/// its text report has always used, the paper claim, and a run function
/// returning a telemetry::RunReport. The unified driver
/// (bench/coverpack_bench.cc) runs any subset and emits
/// BENCH_results.json; `coverpack_bench --filter=<id>` runs one display.

#ifndef COVERPACK_BENCH_EXPERIMENTS_EXPERIMENTS_H_
#define COVERPACK_BENCH_EXPERIMENTS_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "mpc/load_tracker.h"
#include "resilience/fault_plan.h"
#include "telemetry/load_stats.h"
#include "telemetry/run_report.h"

namespace coverpack {
namespace bench {

/// One registered bench experiment.
struct Experiment {
  const char* id;          ///< machine id, e.g. "table1_complexity"
  const char* title;       ///< banner heading, e.g. "Table 1"
  const char* display_id;  ///< VERDICT-line id, e.g. "Table1"
  const char* claim;       ///< the paper claim under test
  bool fast;               ///< cheap enough for the CI fast subset
  telemetry::RunReport (*run)(const Experiment&);
};

/// All experiments, in paper order. The list is assembled statically in
/// experiments.cc (an explicit table, not self-registration, so no
/// static-initialization-order or linker-GC surprises).
const std::vector<Experiment>& AllExperiments();

/// Exact-id lookup; nullptr when absent.
const Experiment* FindExperiment(const std::string& id);

/// One --filter term against id and display_id, case-insensitive. Terms
/// containing '*' or '?' are whole-id globs ("thm5*" matches
/// thm5_optimal_acyclic and thm5_random_queries); plain terms keep the
/// historical substring semantics.
bool ExperimentMatchesFilter(const Experiment& experiment, const std::string& filter);

/// Runs one experiment with instrumentation: resets the process-global
/// ExchangeTelemetry and MemoryTelemetry, invokes the run function, and
/// snapshots their "exchange.*" and "memory.*" metrics into the report
/// (EXPERIMENTS.md documents the keys). When `faults` is active the run
/// goes under one FaultInjector of its own, whose "fault.*"/"recovery.*"
/// ledger is merged into the report; experiments that inject faults
/// themselves merge their own injectors' ledgers. "cluster.*" keys come
/// from the elastic pipelines cluster_elastic runs. All drivers go through
/// this so every BENCH_results.json row carries the profile of its run.
telemetry::RunReport RunExperiment(const Experiment& experiment,
                                   const resilience::FaultSpec& faults = {});

/// Seeds a RunReport with the experiment's identity. Every run function
/// starts with this, so the registry row is the single source of truth.
inline telemetry::RunReport MakeReport(const Experiment& experiment) {
  return telemetry::RunReport(experiment.id, experiment.display_id, experiment.claim);
}

/// Profiles one simulated run into the report: adds the load-skew profile
/// under `name` and feeds every nonempty round's skew ratio into the
/// shared "round_skew_ratio" histogram.
void ProfileRun(telemetry::RunReport& report, const std::string& name,
                const LoadTracker& tracker);

}  // namespace bench
}  // namespace coverpack

#endif  // COVERPACK_BENCH_EXPERIMENTS_EXPERIMENTS_H_
