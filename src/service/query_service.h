/// \file query_service.h
/// \brief A long-running query service over the simulated MPC cluster.
///
/// The service owns a catalog of registered (query, instance) pairs and a
/// structure-keyed PlanCache, and serves a stream of simulated client
/// requests (workload_sim.h). Each Run() is one discrete-event simulation:
///
///   admission  — an arrival event enqueues the request FIFO;
///   scheduling — a deterministic work-queue scheduler leases a disjoint
///                sub-cluster (LeaseManager) per admitted query, batching
///                every query dispatchable at the same tick;
///   planning   — serial, in admission order: PlanCache lookup by
///                (shape hash, p, stats signature), cold plans computed
///                and inserted (LP numbers, join-forest summary, Theorem 4
///                load threshold, server demand);
///   execution  — the batch's pipelines run concurrently on the existing
///                ThreadPool (each internally shard-parallel), each running
///                the planner::Algorithm its cached plan names (Theorem 5's
///                multi-round run uses the cached threshold);
///   latency    — completion is scheduled on the *simulated* clock:
///                planning ticks (cold >> hit) plus execution ticks
///                derived from the run's per-round bottleneck loads. No
///                wall clock anywhere, so throughput and p99 are
///                bit-identical at any thread count.
///
/// The PlanCache persists across Run() calls on the same service: a second
/// identical Run() is the warm-cache experiment (100% hits, identical
/// loads, higher simulated throughput).

#ifndef COVERPACK_SERVICE_QUERY_SERVICE_H_
#define COVERPACK_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mpc/load_tracker.h"
#include "planner/plan_chooser.h"
#include "query/hypergraph.h"
#include "relation/instance.h"
#include "service/plan_cache.h"
#include "service/query_shape.h"
#include "service/scheduler.h"
#include "service/workload_sim.h"

namespace coverpack {
namespace service {

/// Simulated-latency model constants (ticks). Planning cost scales with
/// the psi* subset enumeration (exponential in attributes) so cold plans
/// on wider queries pay proportionally more; a cache hit pays a flat
/// near-zero lookup cost. Execution charges each round a fixed latency
/// plus its bottleneck load at kTuplesPerTick tuples per tick.
inline constexpr uint64_t kPlanHitTicks = 8;
inline constexpr uint64_t kPlanBaseTicks = 96;
inline constexpr uint64_t kLpSubsetTicks = 6;
inline constexpr uint64_t kTreeTicks = 12;
inline constexpr uint64_t kRoundLatencyTicks = 32;
inline constexpr uint64_t kTuplesPerTick = 64;

/// Which algorithm the planner is allowed to pick. kAuto defers to the
/// cost-based PlanChooser (src/planner); a forced mode overrides the
/// chooser whenever that algorithm is applicable to the query, falling
/// back to the chooser's pick when it is not (e.g. output-balanced forced
/// on a cyclic query).
enum class PlannerMode : uint8_t {
  kAuto = 0,
  kForceOneRound,
  kForceAcyclic,
  kForceOutputBalanced,
};

/// Stable name for reports / flags ("auto", "one_round", ...).
const char* PlannerModeName(PlannerMode mode);

/// Parses a --planner flag value; nullopt on unknown strings.
std::optional<PlannerMode> ParsePlannerMode(const std::string& text);

/// Service-wide configuration.
struct ServiceConfig {
  uint32_t total_servers = 256;     ///< the simulated p-server pool
  uint32_t servers_per_query = 64;  ///< sub-cluster lease size
  /// Per-server speeds (size total_servers, all > 0) for a heterogeneous
  /// pool; empty means every server has unit speed. Leases are granted in
  /// speed-capacity units: each query asks for `servers_per_query` units
  /// of aggregate speed and receives the first-fit minimal range covering
  /// them (LeaseManager::AcquireCapacity), so fast servers shrink the
  /// footprint. Under unit speeds that range is exactly servers_per_query
  /// servers wide, so an all-1.0 vector and an empty one run identically.
  std::vector<double> server_speeds;
  bool cache_enabled = true;
  size_t cache_capacity = 64;
  bool collect_results = false;  ///< pipelines run charge-only by default
  PlannerMode planner_mode = PlannerMode::kAuto;
  WorkloadConfig workload;
};

/// One registered catalog entry with its precomputed cache identity.
struct RegisteredQuery {
  /// Canonicalizes the shape and stats signature once, at registration.
  RegisteredQuery(std::string name_in, Hypergraph query_in, Instance instance_in);

  std::string name;
  Hypergraph query;
  Instance instance;
  ShapeCanon canon;
  planner::StatsSnapshot stats;  ///< per-attribute histograms + degrees
  /// Extended signature: the positional-size base signature folded with the
  /// planner's rename-invariant per-column stats digests, so chooser
  /// decisions are keyed by the stats they actually depend on.
  uint64_t stats_signature = 0;
  /// False when relation sizes differ inside a symmetric edge-color class;
  /// such entries bypass the cache (see query_shape.h).
  bool cacheable = true;
};

/// The load profile one execution produced — byte-comparable against an
/// equivalent standalone pipeline run.
struct LoadFingerprint {
  bool executed = false;
  uint64_t max_load = 0;
  uint32_t rounds = 0;
  uint64_t total_communication = 0;
  uint64_t servers_used = 0;
  uint64_t load_threshold = 0;  ///< 0 for one-round runs
  uint64_t output_count = 0;
  uint64_t tracker_hash = 0;  ///< hash of the full (round, server) load matrix

  bool operator==(const LoadFingerprint& other) const = default;
};

/// One served query, recorded at completion.
struct QueryOutcome {
  uint64_t query_id = 0;
  uint32_t client = 0;
  uint32_t catalog_index = 0;
  uint64_t arrival_ticks = 0;
  uint64_t start_ticks = 0;       ///< dispatch (lease granted)
  uint64_t completion_ticks = 0;
  bool cache_hit = false;
  uint64_t plan_ticks = 0;
  uint64_t exec_ticks = 0;
  uint64_t max_load = 0;
  uint32_t rounds = 0;
  planner::Algorithm strategy = planner::Algorithm::kOneRound;  ///< what actually ran
  uint64_t planner_est_load = 0;  ///< chooser's estimate for this plan
};

/// Everything one Run() measured. All tick-denominated — no wall clock.
struct ServiceRunStats {
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  uint64_t sim_end_ticks = 0;       ///< tick of the last completion
  double throughput_qpk = 0.0;      ///< completed queries per 1000 ticks
  uint64_t latency_p50_ticks = 0;
  uint64_t latency_p99_ticks = 0;
  uint64_t latency_max_ticks = 0;
  double latency_mean_ticks = 0.0;
  uint64_t queue_wait_p99_ticks = 0;
  uint64_t max_queue_depth = 0;
  uint32_t peak_servers_leased = 0;
  uint64_t plan_bypasses = 0;   ///< uncacheable entries planned fresh
  uint64_t load_mismatches = 0; ///< re-executions whose loads diverged (must be 0)
  PlanCacheStats cache;         ///< per-run delta of the cache counters
  planner::DecisionLedger planner;  ///< chooser decision tallies + est error
  std::vector<QueryOutcome> outcomes;              ///< completion order
  std::vector<LoadFingerprint> entry_fingerprints; ///< per catalog index
  std::vector<uint64_t> latencies_sorted;

  /// A deterministic digest of every field above (including each outcome
  /// and fingerprint) — equal digests mean bit-identical runs. Tests use
  /// it to compare 1-thread vs N-thread and clean vs fault-injected runs.
  std::string Digest() const;
};

/// The service facade.
class QueryService {
 public:
  explicit QueryService(ServiceConfig config);

  /// Registers a catalog entry; returns its catalog index. The shape is
  /// canonicalized once here, off the serving path.
  uint32_t RegisterQuery(std::string name, Hypergraph query, Instance instance);

  size_t catalog_size() const { return catalog_.size(); }
  const RegisteredQuery& entry(uint32_t catalog_index) const {
    return catalog_[catalog_index];
  }

  /// Serves one full client workload to completion and returns its stats.
  /// The plan cache carries over between calls; counters in the returned
  /// stats are per-run deltas.
  ServiceRunStats Run();

  const PlanCache& cache() const { return cache_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Dispatched;

  ServiceConfig config_;
  std::vector<RegisteredQuery> catalog_;
  PlanCache cache_;
};

/// Hash of a full (round, server) load matrix — the `tracker_hash` field
/// of LoadFingerprint. Exposed so tests and the bench experiment can build
/// fingerprints from raw standalone ComputeAcyclicJoin /
/// ComputeOneRoundSkewAware runs and compare them byte-for-byte against
/// what the service recorded.
uint64_t FingerprintTrackerHash(const LoadTracker& tracker);

/// Computes a fresh plan for (query, instance, p) — the cold path the
/// cache short-circuits. Builds the planner's StatsSnapshot, runs the
/// cost-based PlanChooser (or honors a forced mode when that algorithm is
/// applicable), and bundles the LP numbers + strategy + load threshold
/// into the cacheable artifact. Exposed for tests and for the bench
/// experiment's standalone-equivalence checks.
CachedPlan ComputePlan(const Hypergraph& query, const Instance& instance, uint32_t p,
                       const ShapeCanon& canon,
                       PlannerMode mode = PlannerMode::kAuto);

/// Runs the pipeline an admitted query executes (strategy from `plan`) and
/// returns its load fingerprint plus simulated execution ticks. Exposed so
/// the bench experiment can prove service loads byte-identical to
/// standalone runs.
struct ExecutionResult {
  LoadFingerprint fingerprint;
  uint64_t exec_ticks = 0;
};
ExecutionResult ExecuteRegistered(const Hypergraph& query, const Instance& instance,
                                  const CachedPlan& plan, uint32_t p, bool collect);

}  // namespace service
}  // namespace coverpack

#endif  // COVERPACK_SERVICE_QUERY_SERVICE_H_
