#include "experiments/experiments.h"

#include <algorithm>
#include <cctype>

#include "experiments/runners.h"
#include "mpc/exchange.h"
#include "resilience/fault_injector.h"
#include "telemetry/exchange_metrics.h"
#include "telemetry/memory_metrics.h"
#include "telemetry/metrics.h"
#include "telemetry/resilience_metrics.h"
#include "util/arena.h"
#include "util/hash.h"

namespace coverpack {
namespace bench {

const std::vector<Experiment>& AllExperiments() {
  static const std::vector<Experiment> kExperiments = {
      {"table1_complexity", "Table 1", "Table1",
       "one-round ~ N/p^(1/psi*); multi-round acyclic ~ N/p^(1/rho*) (Thm 5); "
       "cyclic lower bound ~ N/p^(1/tau*) (Thms 6/7)",
       /*fast=*/true, &RunTable1Complexity},
      {"fig1_classification", "Figure 1", "Figure1",
       "classification of join queries into nested structural classes",
       /*fast=*/true, &RunFig1Classification},
      {"fig2_box_join", "Figure 2", "Figure2",
       "box join: rho* = 2 ({R1,R2}), tau* = 3 ({R3,R4,R5})",
       /*fast=*/true, &RunFig2BoxJoin},
      {"fig3_cover_vs_pack", "Figure 3", "Figure3",
       "rho* vs tau* splits reduced queries into three regions; psi* >= both",
       /*fast=*/true, &RunFig3CoverVsPack},
      {"fig4_join_tree", "Figure 4", "Figure4",
       "the example acyclic query has a valid join tree; rho* = 6",
       /*fast=*/true, &RunFig4JoinTree},
      {"fig56_decomposition", "Figures 5+6", "Figures5and6",
       "twig decompositions / linear covers assemble S(E) with max set size rho*",
       /*fast=*/true, &RunFig56Decomposition},
      {"fig7_packing_provable", "Figure 7", "Figure7",
       "edge-packing-provable degree-two joins (reduced, no odd cycle, "
       "constant-small witness cover)",
       /*fast=*/true, &RunFig7PackingProvable},
      {"thm2_subjoin_load", "Theorem 2", "Theorem2",
       "conservative run: load O(L) with L = max_S (|subjoin(S)|/p)^(1/|S|)",
       /*fast=*/true, &RunThm2SubjoinLoad},
      {"thm5_optimal_acyclic", "Theorem 5", "Theorem5",
       "acyclic joins run in O(1) rounds with load O(N / p^(1/rho*))",
       /*fast=*/false, &RunThm5OptimalAcyclic},
      {"thm5_random_queries", "Theorem 5 (random shapes)", "Theorem5Random",
       "load exponent -1/rho* on randomly generated acyclic queries",
       /*fast=*/false, &RunThm5RandomQueries},
      {"thm6_box_lower", "Theorem 6", "Theorem6",
       "box join needs load Omega(N / p^(1/3)) in O(1) rounds",
       /*fast=*/false, &RunThm6BoxLower},
      {"thm7_degree_two", "Theorem 7", "Theorem7",
       "edge-packing-provable degree-two joins need load Omega(N / p^(1/tau*))",
       /*fast=*/false, &RunThm7DegreeTwo},
      {"ex34_gap", "Example 3.4", "Example3.4",
       "conservative threshold N/p^(1/7) vs worst-case-optimal N/p^(1/6) on the "
       "Figure 4 hard instance",
       /*fast=*/true, &RunEx34Gap},
      {"intro_gap", "Section 1.3", "Section1.3",
       "multi-round beats one-round by sqrt(p) on the semi-join example and by "
       "p^((k-1)/k) on star-dual joins",
       /*fast=*/false, &RunIntroGap},
      {"ablation_policy", "Ablation", "Ablation",
       "S^x choice and threshold planner, factored apart",
       /*fast=*/false, &RunAblationPolicy},
      {"em_reduction", "Section 1.4 (EM corollary)", "EMReduction",
       "acyclic joins in EM with O(N^rho* / (M^(rho*-1) B)) I/Os via the "
       "MPC->EM reduction",
       /*fast=*/true, &RunEmReduction},
      {"output_sensitivity", "Output sensitivity (Sec. 1.3)", "OutputSensitivity",
       "output-balanced O(N/p + OUT/p) vs Theorem 5's N/p^(1/rho*): crossover "
       "as OUT approaches the AGM bound",
       /*fast=*/false, &RunOutputSensitivity},
      {"resilience_overhead", "Resilience overhead", "ResilienceOverhead",
       "under injected crashes/stragglers results and loads stay bit-identical; "
       "recovery resends at most one round's bottleneck load per crash and the "
       "uniform-speed makespan keeps the N/p^(1/rho*) exponent",
       /*fast=*/true, &RunResilienceOverhead},
      {"service_throughput", "Query service throughput", "ServiceThroughput",
       "a warm structure-keyed plan cache raises service throughput and never "
       "raises p99; cached plans reproduce standalone pipeline loads "
       "byte-for-byte; isomorphic query shapes share one cache entry",
       /*fast=*/true, &RunServiceThroughput},
      {"planner_ablation", "Plan chooser ablation", "PlannerAblation",
       "the cost-based chooser lands within 10% of the best measured load on "
       ">= 95% of a seeded differential corpus and never loses the "
       "theoretical exponent (<= 4x best on every case)",
       /*fast=*/true, &RunPlannerAblation},
      {"cluster_elastic", "Heterogeneous elastic cluster", "ClusterElastic",
       "speed-aware placement never loses to uniform placement and keeps the "
       "N/p^(1/rho*) exponent; elastic join/leave migrations conserve every "
       "row, are byte-invisible when no event fires, and recover "
       "bit-identically under a crash storm",
       /*fast=*/true, &RunClusterElastic},
  };
  return kExperiments;
}

const Experiment* FindExperiment(const std::string& id) {
  for (const Experiment& experiment : AllExperiments()) {
    if (id == experiment.id) return &experiment;
  }
  return nullptr;
}

namespace {

std::string Lowered(const std::string& s) {
  std::string lowered = s;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return lowered;
}

/// Full-string glob match: '*' spans any run (including empty), '?' any
/// one character. Both inputs are expected pre-lowered. Iterative
/// backtracking over the last '*', linear in practice.
bool GlobMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0;
  size_t p = 0;
  size_t star = std::string::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace

bool ExperimentMatchesFilter(const Experiment& experiment, const std::string& filter) {
  std::string needle = Lowered(filter);
  // A wildcard makes the term a whole-id glob ("thm5*"); otherwise it
  // keeps the historical case-insensitive substring semantics.
  if (needle.find('*') != std::string::npos || needle.find('?') != std::string::npos) {
    return GlobMatch(Lowered(experiment.id), needle) ||
           GlobMatch(Lowered(experiment.display_id), needle);
  }
  return Lowered(experiment.id).find(needle) != std::string::npos ||
         Lowered(experiment.display_id).find(needle) != std::string::npos;
}

namespace {

/// The --seed override; 0 = unset (historical per-site seeds).
uint64_t g_base_seed = 0;

}  // namespace

void SetExperimentBaseSeed(uint64_t seed) { g_base_seed = seed; }

uint64_t ExperimentBaseSeed() { return g_base_seed; }

uint64_t ExperimentSeed(uint64_t site_seed) {
  return g_base_seed == 0 ? site_seed : HashCombine(g_base_seed, site_seed);
}

telemetry::RunReport RunExperiment(const Experiment& experiment,
                                   const resilience::FaultSpec& faults) {
  mpc::ExchangeTelemetry::Reset();
  MemoryTelemetry::Reset();
  telemetry::RunReport report;
  if (faults.active()) {
    resilience::ScopedFaultInjection injection(faults);
    report = experiment.run(experiment);
    telemetry::MergeRecoveryLedgerInto(injection.injector().Ledger(), &report.metrics);
  } else {
    report = experiment.run(experiment);
  }
  telemetry::SnapshotExchangeTelemetryInto(&report.metrics);
  // Arena-scope accounting: logical bytes only, so the values are identical
  // at any thread count or fault schedule (see DESIGN.md §4h).
  telemetry::SnapshotMemoryTelemetryInto(&report.metrics);
  if (g_base_seed != 0) report.AddParam("base_seed", g_base_seed);
  return report;
}

void ProfileRun(telemetry::RunReport& report, const std::string& name,
                const LoadTracker& tracker) {
  telemetry::LoadSkewProfile profile = telemetry::ProfileLoadTracker(tracker, name);
  // Skew ratios are max/mean >= 1 on nonempty rounds; the histogram makes
  // cross-experiment imbalance comparable at a glance.
  static const std::vector<double> kSkewBounds{1.0, 2.0, 4.0, 8.0,
                                               16.0, 32.0, 64.0, 128.0};
  telemetry::Histogram& histogram =
      report.metrics.GetHistogram("round_skew_ratio", kSkewBounds);
  for (const telemetry::RoundLoadStats& round : profile.rounds) {
    if (round.total != 0) histogram.Observe(round.skew_ratio);
  }
  report.metrics.AddCounter("profiled_runs");
  report.AddLoadProfile(std::move(profile));
}

}  // namespace bench
}  // namespace coverpack
