#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "lp/covers.h"
#include "mpc/exchange.h"
#include "planner/plan_chooser.h"
#include "planner/stats.h"
#include "query/catalog.h"
#include "query/join_tree.h"
#include "relation/operators.h"
#include "relation/oracle.h"
#include "service/query_service.h"
#include "trace.h"
#include "util/arena.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace perfbench {
namespace {

namespace cp = coverpack;
namespace svc = coverpack::service;

// ---- service_longtail -----------------------------------------------------
constexpr uint32_t kRandomEntries = 48;  ///< plus triangle, 4-cycle, box, 4-clique
constexpr size_t kEntryN = 4096;         ///< rows per relation
constexpr uint64_t kEntryDomain = 8192;  ///< values per attribute (uniform instances)
constexpr uint32_t kTotalServers = 256;
constexpr uint32_t kServersPerQuery = 64;
constexpr size_t kCacheEntries = 16;
constexpr uint32_t kClients = 6;
constexpr uint32_t kQueriesPerClient = 8;
constexpr double kPopularitySkew = 1.1;
/// The catalog's random shapes and the client stream are drawn from fixed
/// seeds, so every --seed serves the same catalog and the same traffic;
/// --seed draws the instances' data.
constexpr uint64_t kCatalogShapeSeed = 0xC0A7A106;
constexpr uint64_t kClientSeed = 0x5EAF00D;

// ---- skewed_acyclic -------------------------------------------------------
constexpr size_t kSkewedN = 20000;
constexpr uint64_t kSkewedDomain = 1000;
constexpr double kSkewedSkew = 1.2;
constexpr size_t kSkewedCheckN = 200;

// ---- output_heavy ---------------------------------------------------------
constexpr size_t kOutputN = 10000;

const uint32_t kServerCounts[] = {64, 256};

/// The seed of the reference inputs the sim_* figures are measured on. It
/// is fixed, so those figures are the same for every --seed and move only
/// when the model's output moves.
constexpr uint64_t kReferenceSeed = 0x2EF5EED;

/// Counts output checks into attempted / failed and names the first few
/// failures on stderr.
class Checks {
 public:
  explicit Checks(Result* result) : result_(result) {}

  void Expect(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }

  void Count(uint64_t attempted, uint64_t failed, const std::string& what) {
    result_->attempted += attempted;
    result_->failed += failed;
    if (failed > 0 && reported_++ < 5) {
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }

 private:
  Result* result_;
  int reported_ = 0;
};

/// The load profile of one pipeline call. Repeated calls on one instance
/// must produce the same profile.
struct LoadSummary {
  uint64_t max_load = 0;
  uint32_t rounds = 0;
  uint64_t total_communication = 0;
  uint64_t output_count = 0;
  uint64_t tracker_hash = 0;
  bool operator==(const LoadSummary& other) const = default;
};

template <typename Run>
LoadSummary Summarize(const Run& run, uint64_t total_communication) {
  LoadSummary summary;
  summary.max_load = run.max_load;
  summary.rounds = run.rounds;
  summary.total_communication = total_communication;
  summary.output_count = run.output_count;
  summary.tracker_hash = svc::FingerprintTrackerHash(run.load_tracker);
  return summary;
}

/// Builds the inputs once and records the wall time it took as the
/// process's set-up time.
template <typename Build>
auto TimedSetup(Result* result, const Build& build) {
  const Clock::time_point start = Clock::now();
  auto inputs = build();
  result->setup_s = MsBetween(start, Clock::now()) / 1000.0;
  return inputs;
}

/// Times Relation::Dedup on a copy of every relation of `instance` (traced
/// runs only; the copy is not timed).
void TraceDedup(const cp::Instance& instance, Tracer* tracer) {
  if (!tracer->enabled()) return;
  for (size_t e = 0; e < instance.num_relations(); ++e) {
    cp::Relation copy = instance[static_cast<cp::EdgeId>(e)];
    ScopedSpan span(tracer, "relation.dedup");
    copy.Dedup();
  }
}

/// Times SemiJoin on every parent/child pair of the query's join forest
/// (traced runs only). Cyclic queries have no join tree and are skipped.
void TraceSemiJoins(const cp::Hypergraph& query, const cp::Instance& instance,
                    Tracer* tracer) {
  if (!tracer->enabled()) return;
  const auto tree = cp::JoinTree::Build(query);
  if (!tree.has_value()) return;
  for (uint32_t node = 0; node < tree->num_nodes(); ++node) {
    if (tree->IsRoot(node)) continue;
    ScopedSpan span(tracer, "relation.semijoin");
    const cp::Relation reduced = cp::SemiJoin(instance[tree->parent(node)], instance[node]);
    (void)reduced;
  }
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The simulated figures of a set of query runs.
struct SimFigures {
  double max_load = 0.0;  ///< geometric mean of the runs' max loads (the paper's L)
  double rounds = 0.0;    ///< mean rounds per run
};

/// Figures of runs given as (max load, rounds) pairs.
SimFigures FiguresOf(const std::vector<std::pair<uint64_t, uint32_t>>& runs) {
  SimFigures figures;
  if (runs.empty()) return figures;
  double log_sum = 0.0;
  for (const auto& [max_load, rounds] : runs) {
    log_sum += std::log(static_cast<double>(std::max<uint64_t>(max_load, 1)));
    figures.rounds += rounds;
  }
  figures.max_load = std::exp(log_sum / static_cast<double>(runs.size()));
  figures.rounds /= static_cast<double>(runs.size());
  return figures;
}

/// What the timed phase measured. The exchange and memory telemetry are
/// reset at its start; in a traced run the delivery timer is installed
/// for exactly its duration.
struct TimedPhase {
  double wall_ms = 0.0;
  uint64_t calls = 0;
  double coverage = 0.0;  ///< share of the phase covered by operation spans
  DeliveryTimer delivery;
  cp::mpc::ExchangeTelemetrySnapshot exchanges;
  cp::MemoryTelemetrySnapshot memory;
};

/// The timed phase shared by every workload: whole round-robin rounds of
/// `round_size` operations until `seconds` have passed (at least one
/// round). `op(i, op_id)` runs operation i of the round and returns the
/// queries it completed. Each call gives one latency sample, its wall time
/// per completed query, kept apart by call type i: the types differ in
/// cost by up to 6x, so run.py takes each type's median on its own.
template <typename Op>
void RunTimedPhase(size_t round_size, double seconds, Tracer* tracer, const Op& op,
                   TimedPhase* phase, Result* result) {
  cp::mpc::ExchangeTelemetry::Reset();
  cp::MemoryTelemetry::Reset();
  std::optional<ScopedInterposer> interposer;
  if (tracer->enabled()) interposer.emplace(&phase->delivery);
  int64_t root = -1;
  result->call_ms.assign(round_size, {});
  {
    ScopedSpan span(tracer, "phase.timed");
    root = span.index();
    const Clock::time_point start = Clock::now();
    do {
      for (size_t i = 0; i < round_size; ++i) {
        const Clock::time_point call_start = Clock::now();
        const uint64_t completed = op(i, phase->calls++);
        if (completed > 0) {
          result->call_ms[i].push_back(MsBetween(call_start, Clock::now()) /
                                       static_cast<double>(completed));
        }
        result->completed += completed;
      }
    } while (MsBetween(start, Clock::now()) < seconds * 1000.0);
    phase->wall_ms = MsBetween(start, Clock::now());
  }
  interposer.reset();
  phase->exchanges = cp::mpc::ExchangeTelemetry::Snapshot();
  phase->memory = cp::MemoryTelemetry::Snapshot();
  phase->coverage = tracer->ChildCoverage(root);
  result->timed_s = phase->wall_ms / 1000.0;
  result->peak_rss_mib = PeakRssMiB();  // over set-up, warm-up and the timed phase
}

/// Per-layer metrics every workload shares, normalized per operation
/// (`ops`: calls, or served queries on service_longtail).
void AddCommonLayers(const TimedPhase& phase, const Tracer& tracer, uint64_t ops,
                     std::map<std::string, double>* layers) {
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  (*layers)["workload.gen_ms"] = tracer.SumMs("workload.gen");
  (*layers)["relation.dedup_ms"] = tracer.SumMs("relation.dedup");
  (*layers)["relation.semijoin_ms"] = tracer.SumMs("relation.semijoin");
  (*layers)["mpc.deliver_ms"] = phase.delivery.total_ms() * per_op;
  (*layers)["mpc.exchanges"] = static_cast<double>(phase.exchanges.count) * per_op;
  (*layers)["mpc.tuples_moved"] = static_cast<double>(phase.exchanges.tuples_moved) * per_op;
  (*layers)["memory.arena_bytes_total"] = static_cast<double>(phase.memory.bytes_total) * per_op;
  (*layers)["memory.arena_high_water_bytes"] =
      static_cast<double>(phase.memory.high_water_bytes);
  (*layers)["trace.queries_per_s"] =
      phase.wall_ms > 0.0 ? static_cast<double>(ops) * 1000.0 / phase.wall_ms : 0.0;
  (*layers)["trace.span_coverage"] = phase.coverage;
}

/// Every per-layer metric, in print order. Every workload reports all of
/// them; a layer the workload never calls reads 0. Their units are in
/// BENCHMARK.json, and run.py refuses a result whose names differ from it.
constexpr const char* kLayerMetrics[] = {
    "workload.gen_ms",
    "relation.dedup_ms",
    "service.register_ms",
    "service.run_ms",
    "service.cache_hit_ratio",
    "service.sim_qpk",
    "service.sim_latency_p99_ticks",
    "planner.compute_plan_ms",
    "planner.stats_ms",
    "planner.choose_ms",
    "lp.covers_ms",
    "core.execute_ms",
    "core.acyclic_ms",
    "core.one_round_ms",
    "core.output_balanced_ms",
    "relation.semijoin_ms",
    "mpc.deliver_ms",
    "mpc.exchanges",
    "mpc.tuples_moved",
    "memory.arena_bytes_total",
    "memory.arena_high_water_bytes",
    "trace.queries_per_s",
    "trace.span_coverage",
};

/// Copies `layers` into the result in kLayerMetrics order; names the
/// workload did not fill read 0 (the layer is not called).
void EmitLayers(const std::map<std::string, double>& layers, Result* result) {
  for (const char* name : kLayerMetrics) {
    const auto it = layers.find(name);
    result->layers.push_back({name, it == layers.end() ? 0.0 : it->second});
  }
}

void WriteSpans(const Tracer& tracer, const std::string& workload, uint64_t seed) {
  const std::string path = "perfbench_spans_" + workload + "_" + std::to_string(seed) + ".json";
  if (!tracer.WriteJson(path)) std::cerr << "perfbench: could not write " << path << "\n";
}

// ---- service_longtail -----------------------------------------------------

std::unique_ptr<svc::QueryService> BuildService(uint64_t seed, Tracer* tracer) {
  svc::ServiceConfig config;
  config.total_servers = kTotalServers;
  config.servers_per_query = kServersPerQuery;
  config.cache_capacity = kCacheEntries;
  config.workload.clients = kClients;
  config.workload.queries_per_client = kQueriesPerClient;
  config.workload.mode = svc::ArrivalMode::kOpenLoop;
  config.workload.zipf_skew = kPopularitySkew;
  config.workload.seed = kClientSeed;
  auto service = std::make_unique<svc::QueryService>(config);

  std::vector<std::pair<std::string, cp::Hypergraph>> shapes;
  {
    ScopedSpan span(tracer, "workload.gen");
    cp::Rng rng(kCatalogShapeSeed);
    for (uint32_t i = 0; i < kRandomEntries; ++i) {
      shapes.emplace_back("random" + std::to_string(i), cp::workload::RandomAcyclicQuery(&rng));
    }
  }
  shapes.emplace_back("triangle", cp::catalog::Triangle());
  shapes.emplace_back("cycle4", cp::catalog::Cycle(4));
  shapes.emplace_back("box", cp::catalog::BoxJoin());
  shapes.emplace_back("clique4", cp::catalog::Clique(4));
  cp::Rng data_rng(cp::SplitSeed(seed, 1));
  for (auto& [name, query] : shapes) {
    cp::Instance instance;
    {
      ScopedSpan span(tracer, "workload.gen");
      instance = cp::workload::UniformInstance(query, kEntryN, kEntryDomain, &data_rng);
    }
    TraceDedup(instance, tracer);
    ScopedSpan span(tracer, "service.register");
    service->RegisterQuery(name, std::move(query), std::move(instance));
  }
  return service;
}

/// Figures over the catalog entries one Run() executed.
SimFigures ServiceFigures(const svc::ServiceRunStats& stats) {
  std::vector<std::pair<uint64_t, uint32_t>> runs;
  for (const svc::LoadFingerprint& fp : stats.entry_fingerprints) {
    if (fp.executed) runs.emplace_back(fp.max_load, fp.rounds);
  }
  return FiguresOf(runs);
}

/// Serially replays one Run()'s outcomes through the public seams the
/// service composes, to split its time by layer (traced runs only).
void ReplayOutcomes(const svc::QueryService& service, const svc::ServiceRunStats& stats,
                    Tracer* tracer, std::map<std::string, double>* layers) {
  ScopedSpan replay(tracer, "phase.replay");
  std::map<uint32_t, svc::CachedPlan> plans;
  for (const svc::QueryOutcome& outcome : stats.outcomes) {
    const svc::RegisteredQuery& entry = service.entry(outcome.catalog_index);
    if (!outcome.cache_hit || plans.count(outcome.catalog_index) == 0) {
      std::optional<ScopedSpan> plan_span;
      if (!outcome.cache_hit) plan_span.emplace(tracer, "planner.compute_plan", outcome.query_id);
      plans[outcome.catalog_index] =
          svc::ComputePlan(entry.query, entry.instance, kServersPerQuery, entry.canon);
    }
    const svc::CachedPlan& plan = plans[outcome.catalog_index];
    if (!outcome.cache_hit) {
      cp::planner::LpNumbers lp;
      {
        ScopedSpan span(tracer, "lp.covers", outcome.query_id);
        lp.rho_star = cp::RhoStar(entry.query);
        lp.tau_star = cp::TauStar(entry.query);
        lp.psi_star = cp::EdgeQuasiPackingNumber(entry.query);
      }
      lp.acyclic = plan.acyclic;
      lp.join_tree_roots = plan.join_tree_roots;
      cp::planner::StatsSnapshot snapshot;
      {
        ScopedSpan span(tracer, "planner.stats", outcome.query_id);
        snapshot = cp::planner::BuildStatsSnapshot(entry.query, entry.instance);
      }
      ScopedSpan span(tracer, "planner.choose", outcome.query_id);
      cp::planner::PlanChooser::Choose(entry.query, kServersPerQuery, snapshot, lp);
    }
    ScopedSpan span(tracer, "core.execute", outcome.query_id);
    svc::ExecuteRegistered(entry.query, entry.instance, plan, kServersPerQuery,
                           /*collect=*/false);
  }
  const double per_query =
      stats.outcomes.empty() ? 0.0 : 1.0 / static_cast<double>(stats.outcomes.size());
  for (const char* name :
       {"planner.compute_plan", "planner.stats", "planner.choose", "lp.covers", "core.execute"}) {
    (*layers)[std::string(name) + "_ms"] = tracer->SumMs(name) * per_query;
  }
}

}  // namespace

Result RunServiceLongtail(const RunConfig& config) {
  Result result;
  Checks checks(&result);
  Tracer tracer(config.trace);
  std::unique_ptr<svc::QueryService> service =
      TimedSetup(&result, [&] { return BuildService(config.seed, &tracer); });

  // Warm-up: the first, cold-cache Run. Its per-entry load fingerprints are
  // the reference every later execution of the entry must repeat.
  std::vector<svc::LoadFingerprint> reference = service->Run().entry_fingerprints;

  std::optional<svc::ServiceRunStats> first;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  TimedPhase phase;
  RunTimedPhase(
      1, config.seconds, &tracer,
      [&](size_t, uint64_t op_id) -> uint64_t {
        svc::ServiceRunStats stats;
        {
          ScopedSpan span(&tracer, "service.run", op_id);
          stats = service->Run();
        }
        const uint64_t completed = stats.completed;
        hits += stats.cache.hits;
        lookups += stats.cache.hits + stats.cache.misses;
        // Every execution of an entry must repeat the reference loads.
        std::vector<bool> diverged(reference.size(), false);
        for (size_t e = 0; e < stats.entry_fingerprints.size() && e < reference.size(); ++e) {
          const svc::LoadFingerprint& fp = stats.entry_fingerprints[e];
          if (!fp.executed) continue;
          if (!reference[e].executed) {
            reference[e] = fp;
          } else if (!(fp == reference[e])) {
            diverged[e] = true;
          }
        }
        uint64_t bad = stats.arrivals - std::min(stats.arrivals, stats.completed);
        for (const svc::QueryOutcome& outcome : stats.outcomes) {
          const svc::LoadFingerprint& ref = reference[outcome.catalog_index];
          if (diverged[outcome.catalog_index] || outcome.max_load != ref.max_load ||
              outcome.rounds != ref.rounds) {
            ++bad;
          }
        }
        bad += stats.load_mismatches;
        checks.Count(stats.arrivals, std::min(bad, stats.arrivals),
                     "service run: unserved arrivals or loads that did not repeat");
        if (!first.has_value()) first = std::move(stats);
        return completed;
      },
      &phase, &result);

  // Simulated figures come from the first timed Run, whose cache state
  // (after exactly one warm-up Run) depends only on the seed.
  const SimFigures seeded = ServiceFigures(*first);
  result.seed_max_load = seeded.max_load;
  result.seed_rounds = seeded.rounds;

  if (tracer.enabled()) {
    std::map<std::string, double> layers;
    AddCommonLayers(phase, tracer, result.completed, &layers);
    layers["service.register_ms"] = tracer.SumMs("service.register");
    layers["service.run_ms"] = tracer.SumMs("service.run") / static_cast<double>(result.completed);
    layers["service.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    layers["service.sim_qpk"] = first->throughput_qpk;
    layers["service.sim_latency_p99_ticks"] = static_cast<double>(first->latency_p99_ticks);
    ReplayOutcomes(*service, *first, &tracer, &layers);
    for (uint32_t i = 0; i < service->catalog_size(); ++i) {
      TraceSemiJoins(service->entry(i).query, service->entry(i).instance, &tracer);
    }
    layers["relation.semijoin_ms"] = tracer.SumMs("relation.semijoin");
    EmitLayers(layers, &result);
    WriteSpans(tracer, "service_longtail", config.seed);
  }

  if (!config.final_process) return result;

  // The same figures for a service over the reference data: warm-up Run,
  // then the first Run after it.
  Tracer untraced(false);
  const std::unique_ptr<svc::QueryService> reference_service =
      BuildService(kReferenceSeed, &untraced);
  reference_service->Run();
  const SimFigures sim = ServiceFigures(reference_service->Run());
  result.sim_max_load = sim.max_load;
  result.sim_rounds = sim.rounds;

  // Every entry, run with collect on under the plan the cache holds for
  // it, yields exactly the oracle's row count.
  for (uint32_t i = 0; i < service->catalog_size(); ++i) {
    const svc::RegisteredQuery& entry = service->entry(i);
    const svc::CachedPlan plan =
        svc::ComputePlan(entry.query, entry.instance, kServersPerQuery, entry.canon);
    const svc::ExecutionResult run = svc::ExecuteRegistered(
        entry.query, entry.instance, plan, kServersPerQuery, /*collect=*/true);
    const uint64_t expected = cp::JoinCount(entry.query, entry.instance);
    checks.Expect(run.fingerprint.output_count == expected,
                  "service entry " + entry.name + ": " +
                      std::to_string(run.fingerprint.output_count) + " rows, oracle " +
                      std::to_string(expected));
  }
  return result;
}

// ---- skewed_acyclic / output_heavy -----------------------------------------

namespace {

/// One query over one generated instance.
struct Case {
  std::string name;
  cp::Hypergraph query;
  cp::Instance instance;
};

using Cases = std::vector<Case>;

/// One timed operation: a pipeline call on one case at one server count.
struct Call {
  size_t case_index = 0;
  uint32_t p = 0;
  enum Kind { kAcyclic, kOneRound, kOutputBalanced } kind = kAcyclic;
};

const char* SpanName(Call::Kind kind) {
  switch (kind) {
    case Call::kAcyclic:
      return "core.acyclic";
    case Call::kOneRound:
      return "core.one_round";
    case Call::kOutputBalanced:
      return "core.output_balanced";
  }
  return "core.unknown";
}

/// Runs one pipeline call, charge-only unless `collect`; `rows` receives
/// the collected results.
LoadSummary RunCall(const Call& call, const Case& c, bool collect, cp::Relation* rows) {
  switch (call.kind) {
    case Call::kAcyclic: {
      cp::AcyclicRunOptions options;
      options.policy = cp::RunPolicy::kOptimal;
      options.collect = collect;
      options.p = call.p;
      cp::AcyclicRunResult run = cp::ComputeAcyclicJoin(c.query, c.instance, options);
      if (rows != nullptr) *rows = std::move(run.results);
      return Summarize(run, run.total_communication);
    }
    case Call::kOneRound: {
      cp::OneRoundOptions options;
      options.collect = collect;
      cp::OneRoundResult run = cp::ComputeOneRoundSkewAware(c.query, c.instance, call.p, options);
      if (rows != nullptr) *rows = std::move(run.results);
      return Summarize(run, run.load_tracker.TotalCommunication());
    }
    case Call::kOutputBalanced: {
      cp::OutputBalancedOptions options;
      options.collect = collect;
      cp::OutputBalancedResult run =
          cp::ComputeOutputBalanced(c.query, c.instance, call.p, options);
      if (rows != nullptr) *rows = std::move(run.results);
      return Summarize(run, run.total_communication);
    }
  }
  return {};
}

std::string CallName(const Call& call, const Cases& inputs) {
  return std::string(SpanName(call.kind)) + "(" + inputs[call.case_index].name +
         ", p=" + std::to_string(call.p) + ")";
}

/// Load profiles of a pipeline workload's calls: one warm-up call each,
/// then every timed call, in call order.
struct PipelineRuns {
  std::vector<LoadSummary> warm;
  std::vector<std::vector<LoadSummary>> timed;
};

/// Figures of one charge-only call of each of `calls` (given their load
/// profiles, in call order).
SimFigures PipelineFigures(const std::vector<LoadSummary>& summaries) {
  std::vector<std::pair<uint64_t, uint32_t>> runs;
  for (const LoadSummary& summary : summaries) runs.emplace_back(summary.max_load, summary.rounds);
  return FiguresOf(runs);
}

/// The sim_* figures: each of `calls` made once, charge-only, on the
/// reference inputs `build(kReferenceSeed)` gives (final process only).
template <typename Build>
void MeasureReferenceFigures(const RunConfig& config, const std::vector<Call>& calls,
                             const Build& build, Result* result) {
  if (!config.final_process) return;
  const Cases reference = build(kReferenceSeed);
  std::vector<LoadSummary> summaries;
  for (const Call& call : calls) {
    summaries.push_back(RunCall(call, reference[call.case_index], false, nullptr));
  }
  const SimFigures sim = PipelineFigures(summaries);
  result->sim_max_load = sim.max_load;
  result->sim_rounds = sim.rounds;
}

/// The timed phase of a pipeline workload: an untimed warm-up round, then
/// round-robin over `calls`. The seeded figures come from the warm-up
/// round.
PipelineRuns TimePipelineCalls(const RunConfig& config, const Cases& inputs,
                               const std::vector<Call>& calls, Tracer* tracer, Result* result,
                               TimedPhase* phase) {
  PipelineRuns runs;
  for (const Call& call : calls) {
    runs.warm.push_back(RunCall(call, inputs[call.case_index], false, nullptr));
  }
  runs.timed.resize(calls.size());
  RunTimedPhase(
      calls.size(), config.seconds, tracer,
      [&](size_t i, uint64_t op_id) -> uint64_t {
        const Call& call = calls[i];
        ScopedSpan span(tracer, SpanName(call.kind), op_id);
        runs.timed[i].push_back(RunCall(call, inputs[call.case_index], false, nullptr));
        return 1;
      },
      phase, result);
  const SimFigures seeded = PipelineFigures(runs.warm);
  result->seed_max_load = seeded.max_load;
  result->seed_rounds = seeded.rounds;
  return runs;
}

void AddPipelineLayers(const TimedPhase& phase, const Tracer& tracer, Result* result) {
  std::map<std::string, double> layers;
  AddCommonLayers(phase, tracer, phase.calls, &layers);
  const double per_call = 1.0 / static_cast<double>(phase.calls);
  for (const char* name : {"core.acyclic", "core.one_round", "core.output_balanced"}) {
    layers[std::string(name) + "_ms"] = tracer.SumMs(name) * per_call;
  }
  EmitLayers(layers, result);
}

Cases BuildSkewedCases(uint64_t seed, size_t rows, Tracer* tracer) {
  Cases inputs;
  cp::Rng rng(cp::SplitSeed(seed, 3));
  const std::pair<const char*, cp::Hypergraph> shapes[] = {
      {"path3", cp::catalog::Path(3)},
      {"star3", cp::catalog::Star(3)},
      {"figure4", cp::catalog::Figure4Query()},
      {"triangle", cp::catalog::Triangle()},
  };
  for (const auto& [name, query] : shapes) {
    Case c{name, query, cp::Instance()};
    {
      ScopedSpan span(tracer, "workload.gen");
      c.instance = cp::workload::ZipfInstance(query, rows, kSkewedDomain, kSkewedSkew, &rng);
    }
    TraceDedup(c.instance, tracer);
    inputs.push_back(std::move(c));
  }
  return inputs;
}

Cases BuildOutputCases(uint64_t seed, Tracer* tracer) {
  Cases inputs;
  cp::Rng rng(cp::SplitSeed(seed, 4));
  const std::tuple<const char*, cp::Hypergraph, uint64_t> shapes[] = {
      {"path3_d1000", cp::catalog::Path(3), 1000},
      {"star3_d500", cp::catalog::Star(3), 500},
      {"path3_d120", cp::catalog::Path(3), 120},
  };
  for (const auto& [name, query, domain] : shapes) {
    Case c{name, query, cp::Instance()};
    {
      ScopedSpan span(tracer, "workload.gen");
      c.instance = cp::workload::UniformInstance(query, kOutputN, domain, &rng);
    }
    TraceDedup(c.instance, tracer);
    inputs.push_back(std::move(c));
  }
  return inputs;
}

}  // namespace

Result RunSkewedAcyclic(const RunConfig& config) {
  Result result;
  Tracer tracer(config.trace);
  const Cases inputs =
      TimedSetup(&result, [&] { return BuildSkewedCases(config.seed, kSkewedN, &tracer); });
  std::vector<Call> calls;
  for (uint32_t p : kServerCounts) {
    for (size_t c = 0; c < inputs.size(); ++c) {
      const bool cyclic = inputs[c].name == "triangle";
      calls.push_back({c, p, cyclic ? Call::kOneRound : Call::kAcyclic});
    }
  }
  TimedPhase phase;
  const PipelineRuns runs = TimePipelineCalls(config, inputs, calls, &tracer, &result, &phase);
  Checks checks(&result);
  for (size_t i = 0; i < calls.size(); ++i) {
    for (const LoadSummary& summary : runs.timed[i]) {
      checks.Expect(summary == runs.warm[i], CallName(calls[i], inputs) + ": loads did not repeat");
    }
  }

  if (tracer.enabled()) {
    for (const Case& c : inputs) TraceSemiJoins(c.query, c.instance, &tracer);
    AddPipelineLayers(phase, tracer, &result);
    WriteSpans(tracer, "skewed_acyclic", config.seed);
  }

  // These pipelines count their output only in collect mode, and the
  // acyclic outputs of the timed instances run to 1e8 rows and beyond, so
  // every call is also made collecting on a check instance: same shape,
  // generator, domain and skew, kSkewedCheckN rows. Its result set must
  // equal GenericJoin's. The triangle's timed instances are small enough
  // in output to be checked directly as well.
  Tracer untraced(false);
  MeasureReferenceFigures(
      config, calls,
      [&](uint64_t seed) { return BuildSkewedCases(seed, kSkewedN, &untraced); }, &result);
  if (!config.final_process) return result;
  const Cases check_inputs =
      BuildSkewedCases(cp::SplitSeed(config.seed, 5), kSkewedCheckN, &untraced);
  for (const Cases* set : {&check_inputs, &inputs}) {
    std::vector<std::optional<cp::Relation>> expected(set->size());
    for (const Call& call : calls) {
      const Case& c = (*set)[call.case_index];
      if (set == &inputs && call.kind != Call::kOneRound) continue;
      if (!expected[call.case_index].has_value()) {
        expected[call.case_index] = cp::GenericJoin(c.query, c.instance);
      }
      cp::Relation rows;
      RunCall(call, c, /*collect=*/true, &rows);
      checks.Expect(rows.SameContentAs(*expected[call.case_index]),
                    CallName(call, *set) + (set == &inputs ? "" : " on its check instance") +
                        ": result set differs from GenericJoin");
    }
  }
  return result;
}

Result RunOutputHeavy(const RunConfig& config) {
  Result result;
  Tracer tracer(config.trace);
  const Cases inputs =
      TimedSetup(&result, [&] { return BuildOutputCases(config.seed, &tracer); });
  std::vector<Call> calls;
  for (uint32_t p : kServerCounts) {
    for (size_t c = 0; c < inputs.size(); ++c) calls.push_back({c, p, Call::kOutputBalanced});
  }
  TimedPhase phase;
  const PipelineRuns runs = TimePipelineCalls(config, inputs, calls, &tracer, &result, &phase);

  if (tracer.enabled()) {
    for (const Case& c : inputs) TraceSemiJoins(c.query, c.instance, &tracer);
    AddPipelineLayers(phase, tracer, &result);
    WriteSpans(tracer, "output_heavy", config.seed);
  }
  Tracer untraced(false);
  MeasureReferenceFigures(
      config, calls, [&](uint64_t seed) { return BuildOutputCases(seed, &untraced); }, &result);

  // Every timed call: its output count against the oracle's count (cheap
  // here, so every process checks), and its load profile against its
  // warm-up call's.
  Checks checks(&result);
  std::vector<uint64_t> expected;
  for (const Case& c : inputs) expected.push_back(cp::JoinCount(c.query, c.instance));
  if (config.corrupt_reference) expected[0] += 1;
  for (size_t i = 0; i < calls.size(); ++i) {
    const uint64_t want = expected[calls[i].case_index];
    for (const LoadSummary& summary : runs.timed[i]) {
      checks.Expect(summary.output_count == want && summary == runs.warm[i],
                    CallName(calls[i], inputs) + ": output_count " +
                        std::to_string(summary.output_count) + ", oracle " +
                        std::to_string(want) + ", or loads did not repeat");
    }
  }
  return result;
}

}  // namespace perfbench
