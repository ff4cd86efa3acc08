#include "service/query_service.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "core/acyclic_join.h"
#include "core/load_planner.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "lp/covers.h"
#include "planner/stats.h"
#include "query/decomposition.h"
#include "query/join_tree.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace service {

uint64_t FingerprintTrackerHash(const LoadTracker& tracker) {
  uint64_t h = HashCombine(tracker.num_servers(), tracker.num_rounds());
  for (uint32_t r = 0; r < tracker.num_rounds(); ++r) {
    for (uint32_t s = 0; s < tracker.num_servers(); ++s) {
      h = HashCombine(h, tracker.At(r, s));
    }
  }
  return h;
}

namespace {

uint64_t ExecutionTicks(const LoadTracker& tracker) {
  uint64_t ticks = 0;
  for (uint32_t r = 0; r < tracker.num_rounds(); ++r) {
    ticks += kRoundLatencyTicks + CeilDiv(tracker.MaxLoadOfRound(r), kTuplesPerTick);
  }
  return ticks;
}

/// Nearest-rank percentile of an ascending-sorted vector (0 when empty).
uint64_t Percentile(const std::vector<uint64_t>& sorted, uint32_t pct) {
  if (sorted.empty()) return 0;
  const size_t index = (static_cast<size_t>(pct) * (sorted.size() - 1)) / 100;
  return sorted[index];
}

}  // namespace

const char* PlannerModeName(PlannerMode mode) {
  switch (mode) {
    case PlannerMode::kAuto: return "auto";
    case PlannerMode::kForceOneRound: return "one_round";
    case PlannerMode::kForceAcyclic: return "acyclic";
    case PlannerMode::kForceOutputBalanced: return "output_balanced";
  }
  return "auto";
}

std::optional<PlannerMode> ParsePlannerMode(const std::string& text) {
  if (text == "auto") return PlannerMode::kAuto;
  if (text == "one_round") return PlannerMode::kForceOneRound;
  if (text == "acyclic") return PlannerMode::kForceAcyclic;
  if (text == "output_balanced") return PlannerMode::kForceOutputBalanced;
  return std::nullopt;
}

CachedPlan ComputePlan(const Hypergraph& query, const Instance& instance, uint32_t p,
                       const ShapeCanon& canon, PlannerMode mode) {
  CachedPlan plan;
  plan.canonical_form = canon.canonical_form;
  const auto tree = JoinTree::Build(query);
  plan.acyclic = tree.has_value();
  plan.rho_star = RhoStar(query);
  plan.tau_star = TauStar(query);
  plan.psi_star = EdgeQuasiPackingNumber(query);
  if (plan.acyclic) {
    plan.join_tree_roots = static_cast<uint32_t>(tree->Roots().size());
    plan.max_s_family_size = MaxSFamilySetSize(query);
    plan.load_threshold = PlanLoadOptimal(query, instance, p);
    plan.theoretical_servers =
        TheoreticalServerDemand(query, instance, plan.load_threshold, RunPolicy::kOptimal);
  }
  // Strategy selection: the cost-based chooser ranks the menu from the
  // per-attribute statistics; a forced mode overrides it whenever that
  // algorithm is structurally applicable.
  planner::LpNumbers lp;
  lp.rho_star = plan.rho_star;
  lp.tau_star = plan.tau_star;
  lp.psi_star = plan.psi_star;
  lp.acyclic = plan.acyclic;
  lp.join_tree_roots = plan.join_tree_roots;
  const planner::StatsSnapshot stats = planner::BuildStatsSnapshot(query, instance);
  const planner::PlanDecision decision = planner::PlanChooser::Choose(query, p, stats, lp);
  plan.strategy = decision.algorithm;
  plan.planner_est_load = decision.est_load;
  plan.planner_out_estimate = decision.out_estimate;
  plan.join_order = decision.join_order;
  if (mode != PlannerMode::kAuto) {
    planner::Algorithm forced = planner::Algorithm::kOneRound;
    if (mode == PlannerMode::kForceAcyclic) forced = planner::Algorithm::kAcyclicMultiRound;
    if (mode == PlannerMode::kForceOutputBalanced) {
      forced = planner::Algorithm::kOutputBalanced;
    }
    const planner::CostEstimate& entry = decision.table.ForAlgorithm(forced);
    if (entry.applicable) {
      plan.strategy = forced;
      plan.planner_est_load = entry.est_load;
    }
  }
  // Cold planning cost: dominated by the psi* subset sweep (2^attrs LP
  // solves) plus per-edge tree/decomposition work. A deterministic
  // function of the shape only.
  const uint32_t attrs = std::min<uint32_t>(canon.num_attrs, 20);
  plan.plan_cost_ticks = kPlanBaseTicks + (uint64_t{1} << attrs) * kLpSubsetTicks +
                         uint64_t{canon.num_edges} * kTreeTicks;
  return plan;
}

ExecutionResult ExecuteRegistered(const Hypergraph& query, const Instance& instance,
                                  const CachedPlan& plan, uint32_t p, bool collect) {
  ExecutionResult result;
  LoadFingerprint& fp = result.fingerprint;
  fp.executed = true;
  // The three result types share these field names; each branch below
  // fills only what its type reports differently (load_threshold stays 0
  // for the runs that have none).
  const auto record = [&result, &fp](const auto& run) {
    fp.max_load = run.max_load;
    fp.rounds = run.rounds;
    fp.output_count = run.output_count;
    fp.tracker_hash = FingerprintTrackerHash(run.load_tracker);
    result.exec_ticks = ExecutionTicks(run.load_tracker);
  };
  if (plan.strategy == planner::Algorithm::kAcyclicMultiRound) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = collect;
    options.p = p;
    // The cached threshold equals PlanLoadOptimal for this (shape, stats,
    // p) key, so a cache-hit execution is byte-identical to a standalone
    // auto-planned run — the bench experiment asserts exactly this.
    options.load_threshold = plan.load_threshold;
    const AcyclicRunResult run = ComputeAcyclicJoin(query, instance, options);
    fp.total_communication = run.total_communication;
    fp.servers_used = run.servers_used;
    fp.load_threshold = run.load_threshold;
    record(run);
  } else if (plan.strategy == planner::Algorithm::kOutputBalanced) {
    OutputBalancedOptions options;
    options.collect = collect;
    const OutputBalancedResult run = ComputeOutputBalanced(query, instance, p, options);
    fp.total_communication = run.total_communication;
    fp.servers_used = run.load_tracker.num_servers();
    record(run);
  } else {
    OneRoundOptions options;
    options.collect = collect;
    const OneRoundResult run = ComputeOneRoundSkewAware(query, instance, p, options);
    fp.total_communication = run.load_tracker.TotalCommunication();
    fp.servers_used = run.servers_used;
    record(run);
  }
  return result;
}

std::string ServiceRunStats::Digest() const {
  std::ostringstream out;
  out << "arrivals=" << arrivals << ";completed=" << completed
      << ";end=" << sim_end_ticks << ";qpk=" << throughput_qpk
      << ";p50=" << latency_p50_ticks << ";p99=" << latency_p99_ticks
      << ";max=" << latency_max_ticks << ";mean=" << latency_mean_ticks
      << ";wait99=" << queue_wait_p99_ticks << ";depth=" << max_queue_depth
      << ";peak=" << peak_servers_leased << ";bypass=" << plan_bypasses
      << ";mismatch=" << load_mismatches << ";cache=" << cache.hits << "/"
      << cache.misses << "/" << cache.insertions << "/" << cache.evictions << "/"
      << cache.collisions << "/" << cache.size << ";planner=" << planner.decisions_one_round
      << "/" << planner.decisions_acyclic << "/" << planner.decisions_output_balanced << "/"
      << planner.cache_hits << "/" << planner.cache_misses << "\n";
  for (const QueryOutcome& o : outcomes) {
    out << "q" << o.query_id << ":c" << o.client << ":e" << o.catalog_index << ":a"
        << o.arrival_ticks << ":s" << o.start_ticks << ":f" << o.completion_ticks << ":h"
        << (o.cache_hit ? 1 : 0) << ":p" << o.plan_ticks << ":x" << o.exec_ticks << ":l"
        << o.max_load << ":r" << o.rounds << ":y"
        << static_cast<uint32_t>(o.strategy) << ":v" << o.planner_est_load << "\n";
  }
  for (size_t i = 0; i < entry_fingerprints.size(); ++i) {
    const LoadFingerprint& f = entry_fingerprints[i];
    out << "fp" << i << ":" << (f.executed ? 1 : 0) << ":" << f.max_load << ":" << f.rounds
        << ":" << f.total_communication << ":" << f.servers_used << ":" << f.load_threshold
        << ":" << f.output_count << ":" << f.tracker_hash << "\n";
  }
  return out.str();
}

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache_capacity) {
  CP_CHECK(config_.servers_per_query > 0);
  CP_CHECK_LE(config_.servers_per_query, config_.total_servers);
}

RegisteredQuery::RegisteredQuery(std::string name_in, Hypergraph query_in,
                                 Instance instance_in)
    : name(std::move(name_in)),
      query(std::move(query_in)),
      instance(std::move(instance_in)) {
  instance.CheckAgainst(query);
  canon = CanonicalizeShape(query);
  stats = planner::BuildStatsSnapshot(query, instance);
  stats_signature =
      planner::SnapshotSignature(canon.edge_colors, stats, StatsSignature(canon, instance));
  cacheable = SizesUniformPerColorClass(canon, instance);
}

uint32_t QueryService::RegisterQuery(std::string name, Hypergraph query, Instance instance) {
  catalog_.emplace_back(std::move(name), std::move(query), std::move(instance));
  return static_cast<uint32_t>(catalog_.size() - 1);
}

/// A query holding a lease with its plan resolved, awaiting execution.
struct QueryService::Dispatched {
  uint64_t query_id = 0;
  uint32_t client = 0;
  uint32_t catalog_index = 0;
  uint64_t arrival_ticks = 0;
  SubClusterLease lease;
  CachedPlan plan;
  bool cache_hit = false;
  uint64_t plan_ticks = 0;
};

ServiceRunStats QueryService::Run() {
  CP_CHECK(!catalog_.empty()) << "run needs at least one registered query";
  ServiceRunStats stats;
  const PlanCacheStats cache_before = cache_.stats();

  // Seed the arrival stream. Open-loop and bursty clients issue on their
  // own clock, so their whole schedule is known up front; closed-loop
  // clients issue their next query only after the previous one completes.
  std::vector<ClientSim> clients;
  clients.reserve(config_.workload.clients);
  for (uint32_t c = 0; c < config_.workload.clients; ++c) {
    clients.emplace_back(config_.workload, c, catalog_.size());
  }
  SimEventQueue events;
  uint64_t next_query_id = 0;
  const bool closed_loop = config_.workload.mode == ArrivalMode::kClosedLoop;
  for (uint32_t c = 0; c < clients.size(); ++c) {
    uint64_t t = 0;
    while (!clients[c].Done()) {
      const ClientSim::Draw draw = clients[c].NextArrival();
      t += draw.delay_ticks;
      events.Push({t, 0, SimEventKind::kArrival, c, draw.catalog_index, next_query_id++});
      if (closed_loop) break;  // later arrivals are completion-triggered
    }
  }

  struct Pending {
    uint64_t query_id = 0;
    uint32_t client = 0;
    uint32_t catalog_index = 0;
    uint64_t arrival_ticks = 0;
  };
  struct Running {
    QueryOutcome outcome;
    SubClusterLease lease;
  };
  std::deque<Pending> wait_queue;
  std::map<uint64_t, Running> running;  // query_id -> in-flight record
  LeaseManager leases(config_.total_servers);
  leases.SetSpeeds(config_.server_speeds);
  // Every query leases servers_per_query units of aggregate speed; under
  // unit speeds that is exactly servers_per_query servers.
  const double lease_capacity = static_cast<double>(config_.servers_per_query);
  stats.entry_fingerprints.assign(catalog_.size(), LoadFingerprint{});
  std::vector<uint64_t> queue_waits;

  uint64_t now = 0;
  while (!events.empty()) {
    now = events.Top().time;
    // Drain every event scheduled for this tick before dispatching, so all
    // queries admissible at `now` form one batch for the thread pool.
    while (!events.empty() && events.Top().time == now) {
      const SimEvent event = events.PopMin();
      if (event.kind == SimEventKind::kArrival) {
        ++stats.arrivals;
        wait_queue.push_back({event.query_id, event.client, event.catalog_index, now});
        stats.max_queue_depth = std::max<uint64_t>(stats.max_queue_depth, wait_queue.size());
      } else {
        auto it = running.find(event.query_id);
        CP_CHECK(it != running.end());
        leases.Release(it->second.lease);
        QueryOutcome outcome = it->second.outcome;
        running.erase(it);
        ++stats.completed;
        stats.sim_end_ticks = std::max(stats.sim_end_ticks, outcome.completion_ticks);
        stats.latencies_sorted.push_back(outcome.completion_ticks - outcome.arrival_ticks);
        queue_waits.push_back(outcome.start_ticks - outcome.arrival_ticks);
        const uint32_t client = outcome.client;
        stats.outcomes.push_back(std::move(outcome));
        if (closed_loop && !clients[client].Done()) {
          const ClientSim::Draw draw = clients[client].NextArrival();
          events.Push({now + draw.delay_ticks, 0, SimEventKind::kArrival, client,
                       draw.catalog_index, next_query_id++});
        }
      }
    }

    // Work-queue scheduling: grant leases FIFO until the pool runs dry.
    // Planning stays serial (deterministic cache state); the batch's
    // pipelines then execute concurrently on the thread pool.
    std::vector<Dispatched> batch;
    while (!wait_queue.empty()) {
      auto lease = leases.AcquireCapacity(lease_capacity);
      if (!lease.has_value()) break;
      const Pending pending = wait_queue.front();
      wait_queue.pop_front();
      Dispatched dispatched;
      dispatched.query_id = pending.query_id;
      dispatched.client = pending.client;
      dispatched.catalog_index = pending.catalog_index;
      dispatched.arrival_ticks = pending.arrival_ticks;
      dispatched.lease = *lease;

      const RegisteredQuery& entry = catalog_[pending.catalog_index];
      if (!config_.cache_enabled || !entry.cacheable) {
        if (!entry.cacheable) ++stats.plan_bypasses;
        dispatched.plan = ComputePlan(entry.query, entry.instance,
                                      config_.servers_per_query, entry.canon,
                                      config_.planner_mode);
        dispatched.plan_ticks = dispatched.plan.plan_cost_ticks;
        ++stats.planner.cache_misses;
      } else {
        const PlanCacheKey key{entry.canon.hash, config_.servers_per_query,
                               entry.stats_signature};
        auto cached = cache_.Lookup(key, entry.canon.canonical_form);
        if (cached.has_value()) {
          dispatched.plan = std::move(*cached);
          dispatched.cache_hit = true;
          dispatched.plan_ticks = kPlanHitTicks;
          ++stats.planner.cache_hits;
        } else {
          dispatched.plan = ComputePlan(entry.query, entry.instance,
                                        config_.servers_per_query, entry.canon,
                                        config_.planner_mode);
          dispatched.plan_ticks = dispatched.plan.plan_cost_ticks;
          cache_.Insert(key, dispatched.plan);
          ++stats.planner.cache_misses;
        }
      }
      batch.push_back(std::move(dispatched));
    }
    stats.peak_servers_leased = std::max(stats.peak_servers_leased, leases.peak_leased());

    if (batch.empty()) continue;
    // Execute the batch's pipelines concurrently; results land in
    // per-slot storage, so the merge below is deterministic regardless of
    // which worker ran which pipeline.
    std::vector<ExecutionResult> results(batch.size());
    const auto run_one = [&](size_t i) {
      const RegisteredQuery& entry = catalog_[batch[i].catalog_index];
      // Plans are keyed and computed at p = servers_per_query; a lease on
      // fast servers may hold fewer physical servers (its aggregate speed
      // covers the same p speed-units), so execution uses the plan's p,
      // not the lease footprint. Under unit speeds the two agree.
      results[i] = ExecuteRegistered(entry.query, entry.instance, batch[i].plan,
                                     config_.servers_per_query,
                                     config_.collect_results);
    };
    if (batch.size() == 1) {
      run_one(0);
    } else {
      ThreadPool::Global().ParallelFor(0, batch.size(), /*grain=*/1, run_one);
    }

    for (size_t i = 0; i < batch.size(); ++i) {
      const Dispatched& dispatched = batch[i];
      LoadFingerprint& first = stats.entry_fingerprints[dispatched.catalog_index];
      if (!first.executed) {
        first = results[i].fingerprint;
      } else if (!(first == results[i].fingerprint)) {
        ++stats.load_mismatches;  // same entry, same p: loads must repeat
      }
      Running run;
      run.lease = dispatched.lease;
      run.outcome.query_id = dispatched.query_id;
      run.outcome.client = dispatched.client;
      run.outcome.catalog_index = dispatched.catalog_index;
      run.outcome.arrival_ticks = dispatched.arrival_ticks;
      run.outcome.start_ticks = now;
      run.outcome.completion_ticks = now + dispatched.plan_ticks + results[i].exec_ticks;
      run.outcome.cache_hit = dispatched.cache_hit;
      run.outcome.plan_ticks = dispatched.plan_ticks;
      run.outcome.exec_ticks = results[i].exec_ticks;
      run.outcome.max_load = results[i].fingerprint.max_load;
      run.outcome.rounds = results[i].fingerprint.rounds;
      run.outcome.strategy = dispatched.plan.strategy;
      run.outcome.planner_est_load = dispatched.plan.planner_est_load;
      stats.planner.CountDecision(dispatched.plan.strategy);
      if (results[i].fingerprint.max_load > 0) {
        stats.planner.est_error_ratios.push_back(
            static_cast<double>(dispatched.plan.planner_est_load) /
            static_cast<double>(results[i].fingerprint.max_load));
      }
      events.Push({run.outcome.completion_ticks, 0, SimEventKind::kCompletion,
                   dispatched.client, dispatched.catalog_index, dispatched.query_id});
      running.emplace(dispatched.query_id, std::move(run));
    }
  }
  CP_CHECK(wait_queue.empty());
  CP_CHECK(running.empty());
  CP_CHECK_EQ(stats.arrivals, stats.completed);

  std::sort(stats.latencies_sorted.begin(), stats.latencies_sorted.end());
  std::sort(queue_waits.begin(), queue_waits.end());
  stats.latency_p50_ticks = Percentile(stats.latencies_sorted, 50);
  stats.latency_p99_ticks = Percentile(stats.latencies_sorted, 99);
  stats.latency_max_ticks =
      stats.latencies_sorted.empty() ? 0 : stats.latencies_sorted.back();
  if (!stats.latencies_sorted.empty()) {
    uint64_t total = 0;
    for (uint64_t latency : stats.latencies_sorted) total += latency;
    stats.latency_mean_ticks =
        static_cast<double>(total) / static_cast<double>(stats.latencies_sorted.size());
  }
  stats.queue_wait_p99_ticks = Percentile(queue_waits, 99);
  if (stats.sim_end_ticks > 0) {
    stats.throughput_qpk = static_cast<double>(stats.completed) * 1000.0 /
                           static_cast<double>(stats.sim_end_ticks);
  }
  stats.cache = cache_.stats().Since(cache_before);
  return stats;
}

}  // namespace service
}  // namespace coverpack
