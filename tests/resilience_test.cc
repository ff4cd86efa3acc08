/// Tests for the resilience subsystem: the deterministic FaultPlan oracle,
/// the ExchangeDelivery/ExchangeInterposer seam, FaultInjector recovery
/// (bounded retries, full-rerun degradation, ledger accounting), round
/// checkpoints, and the heterogeneity cost model. Includes the negative
/// path: a corrupting interposer that does NOT recover must trip the
/// exchange conservation audit.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/load_tracker.h"
#include "resilience/checkpoint.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "resilience/fault_plan.h"
#include "util/audit.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace {

using mpc::ExchangeDelivery;
using mpc::ExchangeInterposer;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultSpec;
using resilience::RecoveryLedger;
using resilience::ScopedFaultInjection;

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlanTest, DecisionsArePureFunctionsOfTheirCoordinates) {
  FaultSpec spec;
  spec.seed = 42;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.3;
  spec.straggler_rate = 0.3;
  spec.straggler_severity = 4.0;
  FaultPlan plan(spec);
  const uint64_t key = FaultPlan::ExchangeKey(2, "hash_partition", 1000, 1000, 16);
  for (uint32_t attempt = 0; attempt < 4; ++attempt) {
    for (uint32_t server = 0; server < 16; ++server) {
      EXPECT_EQ(plan.CrashesDelivery(key, attempt, server),
                plan.CrashesDelivery(key, attempt, server));
      EXPECT_EQ(plan.DropsRow(key, attempt, 0, server, 7),
                plan.DropsRow(key, attempt, 0, server, 7));
      EXPECT_EQ(plan.SpeedOf(attempt, server), plan.SpeedOf(attempt, server));
    }
  }
}

TEST(FaultPlanTest, RateZeroNeverFiresAndRateOneAlwaysFires) {
  FaultSpec never;
  never.seed = 7;
  FaultPlan quiet(never);
  FaultSpec always;
  always.seed = 7;
  always.crash_rate = 1.0;
  always.drop_rate = 1.0;
  FaultPlan loud(always);
  const uint64_t key = FaultPlan::ExchangeKey(0, "broadcast", 64, 0, 8);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_FALSE(quiet.CrashesDelivery(key, 0, s));
    EXPECT_FALSE(quiet.DropsRow(key, 0, 0, s, s));
    EXPECT_TRUE(loud.CrashesDelivery(key, 0, s));
    EXPECT_TRUE(loud.DropsRow(key, 0, 0, s, s));
  }
}

TEST(FaultPlanTest, EmpiricalRatesTrackTheSpec) {
  FaultSpec spec;
  spec.seed = 99;
  spec.crash_rate = 0.2;
  FaultPlan plan(spec);
  uint64_t fired = 0;
  const uint64_t trials = 20000;
  for (uint64_t i = 0; i < trials; ++i) {
    const uint64_t key = FaultPlan::ExchangeKey(static_cast<uint32_t>(i), "x", i, i, 4);
    fired += plan.CrashesDelivery(key, 0, 1) ? 1 : 0;
  }
  const double rate = static_cast<double>(fired) / static_cast<double>(trials);
  EXPECT_GT(rate, 0.17);
  EXPECT_LT(rate, 0.23);
}

TEST(FaultPlanTest, SeedsAndCoordinatesDecorrelateDecisions) {
  FaultSpec a;
  a.seed = 1;
  a.crash_rate = 0.5;
  FaultSpec b = a;
  b.seed = 2;
  FaultPlan plan_a(a);
  FaultPlan plan_b(b);
  const uint64_t key1 = FaultPlan::ExchangeKey(0, "scatter", 100, 100, 8);
  const uint64_t key2 = FaultPlan::ExchangeKey(1, "scatter", 100, 100, 8);
  EXPECT_NE(key1, key2);
  EXPECT_NE(key1, FaultPlan::ExchangeKey(0, "linear", 100, 100, 8));
  bool differs = false;
  for (uint32_t s = 0; s < 64 && !differs; ++s) {
    differs = plan_a.CrashesDelivery(key1, 0, s) != plan_b.CrashesDelivery(key1, 0, s);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, StragglerSpeedsAreSeveritiesOrUnit) {
  FaultSpec spec;
  spec.seed = 5;
  spec.straggler_rate = 0.5;
  spec.straggler_severity = 4.0;
  FaultPlan plan(spec);
  uint32_t slow = 0;
  for (uint32_t s = 0; s < 1000; ++s) {
    const double speed = plan.SpeedOf(3, s);
    EXPECT_TRUE(speed == 1.0 || speed == 0.25);
    slow += speed < 1.0 ? 1 : 0;
  }
  EXPECT_GT(slow, 400u);
  EXPECT_LT(slow, 600u);
  // Inert straggler config: unit speed everywhere.
  EXPECT_EQ(FaultPlan().SpeedOf(0, 0), 1.0);
}

// ---- Exchange seam ---------------------------------------------------------

/// Builds a small routed exchange over `p` shards and executes it,
/// returning destination shards + tracker.
struct ExchangeRun {
  std::vector<Relation> shards;
  LoadTracker tracker{1};
  mpc::ExchangeStats stats;
};

ExchangeRun RunSeededExchange(uint32_t p, uint64_t salt, size_t rows,
                              const char* label = "resilience_property") {
  Rng rng(salt);
  Relation data(AttrSet::FirstN(2));
  for (size_t i = 0; i < rows; ++i) {
    const Value row[2] = {rng.Next(), rng.Next()};
    data.AppendRow(std::span<const Value>(row, 2));
  }
  Cluster cluster(p);
  ExchangeRun run;
  run.shards.assign(p, Relation(data.attrs()));
  mpc::ExchangePlan plan = mpc::Exchange::Plan(
      p, data, [p, salt](size_t i, auto emit) { emit(SplitSeed(salt, i) % p); });
  run.stats = mpc::Exchange::Execute(
      &cluster, 0, plan, [&run](size_t, uint32_t s) { return &run.shards[s]; }, label);
  run.tracker = cluster.tracker();
  return run;
}

TEST(ExchangeInterposerTest, InstallReturnsPreviousForNesting) {
  ASSERT_EQ(ExchangeInterposer::Installed(), nullptr);
  FaultInjector outer(FaultSpec{});
  FaultInjector inner(FaultSpec{});
  ExchangeInterposer* prev = ExchangeInterposer::Install(&outer);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(ExchangeInterposer::Installed(), &outer);
  prev = ExchangeInterposer::Install(&inner);
  EXPECT_EQ(prev, &outer);
  ExchangeInterposer::Install(prev);
  EXPECT_EQ(ExchangeInterposer::Installed(), &outer);
  ExchangeInterposer::Install(nullptr);
  EXPECT_EQ(ExchangeInterposer::Installed(), nullptr);
}

TEST(ExchangeInterposerTest, RestoreTruncatesDestinationsToCheckpoint) {
  /// An interposer that runs one fully-dropped attempt, checks the
  /// destinations, restores, and hands back a clean attempt.
  class Probe : public ExchangeInterposer {
   public:
    uint64_t Deliver(ExchangeDelivery& delivery) override {
      const uint64_t corrupted = delivery.Attempt(
          [](size_t, uint32_t, size_t) { return ExchangeDelivery::RowFate::kDuplicate; });
      EXPECT_EQ(corrupted, 2 * delivery.plan().recorded_planned());
      delivery.Restore();
      saw_exchange = true;
      return delivery.Attempt();
    }
    bool saw_exchange = false;
  };
  Probe probe;
  ExchangeInterposer::Install(&probe);
  ExchangeRun doubled = RunSeededExchange(8, 0xAB, 500);
  ExchangeInterposer::Install(nullptr);
  EXPECT_TRUE(probe.saw_exchange);
  ExchangeRun clean = RunSeededExchange(8, 0xAB, 500);
  // After duplicate-everything + Restore + clean attempt, state matches a
  // never-faulted run exactly.
  EXPECT_EQ(doubled.stats.delivered, clean.stats.delivered);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(doubled.shards[s].raw(), clean.shards[s].raw());
  }
}

TEST(DistRelationTest, TruncateShardsRestoresShardSizes) {
  DistRelation dist(AttrSet::FirstN(1), 3);
  const Value v = 7;
  dist.shard(0).AppendRow(std::span<const Value>(&v, 1));
  dist.shard(2).AppendRow(std::span<const Value>(&v, 1));
  const std::vector<size_t> snapshot = dist.ShardSizes();
  EXPECT_EQ(snapshot, (std::vector<size_t>{1, 0, 1}));
  dist.shard(0).AppendRow(std::span<const Value>(&v, 1));
  dist.shard(1).AppendRow(std::span<const Value>(&v, 1));
  EXPECT_EQ(dist.TotalSize(), 4u);
  dist.TruncateShards(snapshot);
  EXPECT_EQ(dist.ShardSizes(), snapshot);
  EXPECT_EQ(dist.TotalSize(), 2u);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjectorTest, RecoversBitIdenticalStateUnderCrashesAndCorruption) {
  ExchangeRun clean = RunSeededExchange(8, 0xBEEF, 1500);

  FaultSpec spec;
  spec.seed = 3;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.01;
  spec.duplicate_rate = 0.01;
  ExchangeRun faulted;
  RecoveryLedger ledger;
  {
    ScopedFaultInjection injection(spec);
    faulted = RunSeededExchange(8, 0xBEEF, 1500);
    ledger = injection.injector().Ledger();
  }

  EXPECT_EQ(faulted.stats.delivered, clean.stats.delivered);
  EXPECT_EQ(faulted.stats.charged, clean.stats.charged);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(faulted.shards[s].raw(), clean.shards[s].raw());
    EXPECT_EQ(faulted.tracker.At(0, s), clean.tracker.At(0, s));
  }
  EXPECT_EQ(ledger.exchanges_injected, 1u);
  EXPECT_EQ(ledger.checkpoints.num_captures(), 1u);
  ASSERT_EQ(ledger.exchanges_faulted, 1u);  // crash_rate .3 over 8 servers
  EXPECT_GT(ledger.retries, 0u);
  EXPECT_GT(ledger.tuples_resent, 0u);
  EXPECT_GT(ledger.backoff_units, 0u);
  EXPECT_EQ(ledger.attempts_samples.size(), 1u);
  EXPECT_GE(ledger.attempts_samples[0], 2.0);
}

TEST(FaultInjectorTest, PerCrashResendStaysWithinBottleneckReceive) {
  FaultSpec spec;
  spec.seed = 21;
  spec.crash_rate = 0.25;
  ExchangeRun faulted;
  RecoveryLedger ledger;
  {
    ScopedFaultInjection injection(spec);
    faulted = RunSeededExchange(16, 0xD00D, 4000);
    ledger = injection.injector().Ledger();
  }
  ASSERT_GT(ledger.crashes, 0u);
  // Each crash replays one server's round: at most the bottleneck receive.
  EXPECT_LE(ledger.max_single_resend, faulted.stats.max_receive);
  EXPECT_LE(ledger.tuples_resent_crash, ledger.crashes * faulted.stats.max_receive);
}

TEST(FaultInjectorTest, RetryBudgetExhaustionDegradesToFullRerun) {
  FaultSpec spec;
  spec.seed = 8;
  spec.crash_rate = 1.0;  // every attempt crashes every receiving server
  spec.max_attempts = 3;
  ExchangeRun clean = RunSeededExchange(4, 0xFEED, 800);
  ExchangeRun faulted;
  RecoveryLedger ledger;
  {
    ScopedFaultInjection injection(spec);
    faulted = RunSeededExchange(4, 0xFEED, 800);
    ledger = injection.injector().Ledger();
  }
  // Degraded, but still exact.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(faulted.shards[s].raw(), clean.shards[s].raw());
  }
  EXPECT_EQ(ledger.full_reruns, 1u);
  EXPECT_EQ(ledger.retries, 3u);
  // 4 attempts total: three faulty ones plus the final clean replay.
  ASSERT_EQ(ledger.attempts_samples.size(), 1u);
  EXPECT_EQ(ledger.attempts_samples[0], 4.0);
  // The full rerun re-ships the entire plan on top of the per-crash resends.
  EXPECT_EQ(ledger.tuples_resent_full_rerun, faulted.stats.planned);
  EXPECT_EQ(ledger.tuples_resent,
            ledger.tuples_resent_crash + ledger.tuples_resent_full_rerun);
}

TEST(FaultInjectorTest, UnchargedExchangesAreOutsideTheFaultModel) {
  FaultSpec spec;
  spec.seed = 4;
  spec.crash_rate = 1.0;
  Rng rng(1);
  Relation data(AttrSet::FirstN(1));
  for (size_t i = 0; i < 100; ++i) {
    const Value v = rng.Next();
    data.AppendRow(std::span<const Value>(&v, 1));
  }
  std::vector<Relation> shards(4, Relation(data.attrs()));
  mpc::ExchangePlan plan =
      mpc::Exchange::Plan(4, data, [](size_t i, auto emit) { emit(i % 4); });
  RecoveryLedger ledger;
  {
    ScopedFaultInjection injection(spec);
    // Null cluster = initial placement: delivered but never charged, so the
    // injector must pass it through untouched.
    mpc::Exchange::Execute(
        nullptr, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
        "initial_placement");
    ledger = injection.injector().Ledger();
  }
  EXPECT_EQ(ledger.exchanges_injected, 0u);
  EXPECT_EQ(ledger.crashes, 0u);
  uint64_t total = 0;
  for (const Relation& shard : shards) total += shard.size();
  EXPECT_EQ(total, 100u);
}

TEST(FaultInjectorTest, InjectionIsDeterministicAcrossThreadCounts) {
  FaultSpec spec;
  spec.seed = 17;
  spec.crash_rate = 0.3;
  spec.drop_rate = 0.02;
  spec.duplicate_rate = 0.02;
  const unsigned saved = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(1);
  ExchangeRun serial;
  RecoveryLedger serial_ledger;
  {
    ScopedFaultInjection injection(spec);
    serial = RunSeededExchange(8, 0xFACE, 6000);
    serial_ledger = injection.injector().Ledger();
  }
  ThreadPool::SetGlobalThreads(4);
  ExchangeRun parallel;
  RecoveryLedger parallel_ledger;
  {
    ScopedFaultInjection injection(spec);
    parallel = RunSeededExchange(8, 0xFACE, 6000);
    parallel_ledger = injection.injector().Ledger();
  }
  ThreadPool::SetGlobalThreads(saved);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(serial.shards[s].raw(), parallel.shards[s].raw());
  }
  // The fault schedule itself — not just the healed result — is identical.
  EXPECT_EQ(serial_ledger.crashes, parallel_ledger.crashes);
  EXPECT_EQ(serial_ledger.rows_dropped, parallel_ledger.rows_dropped);
  EXPECT_EQ(serial_ledger.rows_duplicated, parallel_ledger.rows_duplicated);
  EXPECT_EQ(serial_ledger.retries, parallel_ledger.retries);
  EXPECT_EQ(serial_ledger.tuples_resent, parallel_ledger.tuples_resent);
}

TEST(FaultInjectorTest, EachInjectorOwnsItsLedger) {
  FaultSpec spec;
  spec.seed = 5;
  spec.crash_rate = 0.5;
  {
    ScopedFaultInjection earlier(spec);
    RunSeededExchange(8, 0xA1, 1000);
    ASSERT_GT(earlier.injector().Ledger().crashes, 0u);
  }
  // No reset anywhere: a later injector starts from an empty ledger.
  ScopedFaultInjection outer(spec);
  const RecoveryLedger fresh = outer.injector().Ledger();
  EXPECT_EQ(fresh.exchanges_injected, 0u);
  EXPECT_EQ(fresh.crashes, 0u);
  EXPECT_EQ(fresh.checkpoints.num_captures(), 0u);

  RunSeededExchange(8, 0xA2, 1000);
  {
    // Exchanges inside a nested injection land only in the inner ledger.
    ScopedFaultInjection inner(spec);
    RunSeededExchange(8, 0xA3, 1000);
    RunSeededExchange(8, 0xA4, 1000);
    RunSeededExchange(8, 0xA5, 1000);
    const RecoveryLedger inner_ledger = inner.injector().Ledger();
    EXPECT_EQ(inner_ledger.exchanges_injected, 3u);
    EXPECT_EQ(inner_ledger.checkpoints.num_captures(), 3u);
  }
  RunSeededExchange(8, 0xA6, 1000);
  const RecoveryLedger outer_ledger = outer.injector().Ledger();
  EXPECT_EQ(outer_ledger.exchanges_injected, 2u);
  EXPECT_EQ(outer_ledger.checkpoints.num_captures(), 2u);
}

// ---- Round checkpoints -----------------------------------------------------

TEST(RoundCheckpointTest, CaptureAndRestoreRoundTripsDistributedState) {
  Cluster cluster(3);
  DistRelation dist(AttrSet::FirstN(1), 3);
  const Value v1 = 1, v2 = 2;
  dist.shard(0).AppendRow(std::span<const Value>(&v1, 1));
  cluster.tracker().Add(0, 0, 10);
  const resilience::RoundCheckpoint checkpoint =
      resilience::RoundCheckpoint::Capture(1, dist, cluster.tracker());
  EXPECT_EQ(checkpoint.round(), 1u);
  EXPECT_EQ(checkpoint.snapshot_tuples(), 1u);

  dist.shard(1).AppendRow(std::span<const Value>(&v2, 1));
  cluster.tracker().Add(1, 2, 99);
  checkpoint.Restore(&dist, &cluster.tracker());
  EXPECT_EQ(dist.TotalSize(), 1u);
  EXPECT_EQ(dist.shard(1).size(), 0u);
  EXPECT_EQ(cluster.tracker().num_rounds(), 1u);
  EXPECT_EQ(cluster.tracker().At(0, 0), 10u);
}

TEST(RoundCheckpointStoreTest, TracksCapturesAndRestoresPerRound) {
  resilience::RoundCheckpointStore store;
  store.NoteCapture(0, 100);
  store.NoteCapture(0, 50);
  store.NoteCapture(2, 10);
  store.NoteRestore(0);
  EXPECT_EQ(store.num_captures(), 3u);
  EXPECT_EQ(store.num_restores(), 1u);
  EXPECT_EQ(store.total_tuples(), 160u);
  EXPECT_EQ(store.num_rounds(), 2u);
  store.Clear();
  EXPECT_EQ(store.num_captures(), 0u);
  EXPECT_EQ(store.num_rounds(), 0u);
}

TEST(RoundCheckpointStoreTest, InjectorLedgersOneCheckpointPerChargedExchange) {
  FaultSpec spec;
  spec.seed = 12;
  spec.crash_rate = 0.5;
  ScopedFaultInjection injection(spec);
  RunSeededExchange(4, 1, 300);
  RunSeededExchange(4, 2, 300);
  const resilience::RoundCheckpointStore store = injection.injector().Ledger().checkpoints;
  EXPECT_EQ(store.num_captures(), 2u);
  EXPECT_GE(store.num_restores(), 1u);  // crash_rate .5 over two exchanges
}

// ---- Cost model ------------------------------------------------------------

TEST(CostModelTest, UniformSpeedsCollapseToRoundSummedBottleneckLoad) {
  LoadTracker tracker(3);
  tracker.Add(0, 0, 100);
  tracker.Add(0, 1, 40);
  tracker.Add(1, 2, 60);
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan());
  EXPECT_DOUBLE_EQ(breakdown.makespan, 160.0);
  EXPECT_DOUBLE_EQ(breakdown.uniform_makespan, 160.0);
  EXPECT_DOUBLE_EQ(breakdown.slowdown, 1.0);
  EXPECT_EQ(breakdown.rounds, 2u);
  EXPECT_EQ(breakdown.straggler_bottlenecks, 0u);
  ASSERT_EQ(breakdown.round_makespans.size(), 2u);
  EXPECT_DOUBLE_EQ(breakdown.round_makespans[0], 100.0);
  EXPECT_DOUBLE_EQ(breakdown.round_makespans[1], 60.0);
}

TEST(CostModelTest, UniversalStragglersScaleMakespanBySeverity) {
  LoadTracker tracker(4);
  tracker.Add(0, 0, 100);
  tracker.Add(1, 3, 50);
  FaultSpec spec;
  spec.seed = 1;
  spec.straggler_rate = 1.0;  // every (round, server) straggles
  spec.straggler_severity = 4.0;
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan(spec));
  EXPECT_DOUBLE_EQ(breakdown.uniform_makespan, 150.0);
  EXPECT_DOUBLE_EQ(breakdown.makespan, 600.0);
  EXPECT_DOUBLE_EQ(breakdown.slowdown, 4.0);
  EXPECT_EQ(breakdown.straggler_bottlenecks, 2u);
}

TEST(CostModelTest, PartialStragglersBoundTheSlowdown) {
  LoadTracker tracker(8);
  for (uint32_t s = 0; s < 8; ++s) tracker.Add(0, s, 100);
  FaultSpec spec;
  spec.seed = 77;
  spec.straggler_rate = 0.5;
  spec.straggler_severity = 8.0;
  const resilience::MakespanBreakdown breakdown =
      resilience::SimulateMakespan(tracker, FaultPlan(spec));
  EXPECT_GE(breakdown.makespan, breakdown.uniform_makespan);
  EXPECT_LE(breakdown.makespan, 8.0 * breakdown.uniform_makespan);
}

// ---- Negative path: corruption without recovery must trip the audit --------

/// An interposer that corrupts the delivery (one dropped row, two
/// duplicated rows — so sent != received even in aggregate) and hands the
/// corrupted state back WITHOUT restoring. The exchange conservation
/// invariant must catch it.
class NonRecoveringCorruptor : public ExchangeInterposer {
 public:
  uint64_t Deliver(ExchangeDelivery& delivery) override {
    size_t index = 0;
    return delivery.Attempt([&index](size_t, uint32_t, size_t) {
      ++index;
      if (index == 1) return ExchangeDelivery::RowFate::kDrop;
      if (index <= 3) return ExchangeDelivery::RowFate::kDuplicate;
      return ExchangeDelivery::RowFate::kDeliver;
    });
  }
};

TEST(ResilienceAuditDeathTest, UnrecoveredCorruptionTripsExchangeConservation) {
  EXPECT_DEATH(
      {
        NonRecoveringCorruptor corruptor;
        ExchangeInterposer::Install(&corruptor);
        Rng rng(123);
        Relation data(AttrSet::FirstN(1));
        for (size_t i = 0; i < 64; ++i) {
          const Value v = rng.Next();
          data.AppendRow(std::span<const Value>(&v, 1));
        }
        Cluster cluster(4);
        std::vector<Relation> shards(4, Relation(data.attrs()));
        mpc::ExchangePlan plan =
            mpc::Exchange::Plan(4, data, [](size_t i, auto emit) { emit(i % 4); });
        // In audit builds Execute's own conservation check fires; in plain
        // builds the same named verifier is invoked on the stats directly.
        mpc::ExchangeStats stats = mpc::Exchange::Execute(
            &cluster, 0, plan, [&shards](size_t, uint32_t s) { return &shards[s]; },
            "corrupted_exchange");
        audit::SimulatorAuditor::VerifyExchange(plan.recorded_planned(), stats.delivered,
                                                "corrupted_exchange");
      },
      "exchange imbalance in corrupted_exchange");
}

}  // namespace
}  // namespace coverpack
