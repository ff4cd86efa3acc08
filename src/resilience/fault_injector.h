/// \file fault_injector.h
/// \brief Exchange interposer that injects faults and recovers from them.
///
/// The FaultInjector sits at the Exchange choke point (the only place any
/// tuple crosses server boundaries, see mpc/exchange.h) and subjects every
/// charged exchange to its FaultPlan: receiving servers crash mid-delivery,
/// individual messages are dropped or duplicated. Recovery is
/// restore-and-replay at round granularity — destinations are truncated
/// back to their pre-exchange checkpoint and the delivery is retried, with
/// exponential-backoff accounting, until a clean attempt lands or the
/// bounded retry budget is exhausted; past the budget it degrades
/// gracefully to a full deterministic rerun of the exchange (accounted at
/// full plan volume). Because the final accepted attempt is always a clean
/// one and the load charging in Exchange::Execute is untouched, a run under
/// any FaultPlan produces bit-identical results, loads, and traces to the
/// fault-free run — only the fault.* / recovery.* ledger differs.
///
/// Each injector keeps its own recovery ledger (Ledger()), so a run's
/// recovery cost is read off the injector that served it; the bench
/// driver writes it into the run's report as fault.* / recovery.* metrics.

#ifndef COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
#define COVERPACK_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "mpc/exchange.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_plan.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace resilience {

/// The recovery ledger of one FaultInjector. Kept apart from the
/// LoadTracker on purpose: the tracker must stay bit-identical to the
/// fault-free run, so every cost of *recovering* lives here instead.
/// Sample vectors hold integer-valued doubles only, so downstream
/// histogram aggregates are exact and independent of the
/// (thread-dependent) recording order.
struct RecoveryLedger {
  uint64_t exchanges_injected = 0;  ///< charged exchanges run under the injector
  uint64_t exchanges_faulted = 0;   ///< of those, how many needed recovery
  uint64_t crashes = 0;             ///< (attempt, server) crash events
  uint64_t rows_dropped = 0;        ///< messages lost to drop corruption
  uint64_t rows_duplicated = 0;     ///< messages duplicated in transit
  uint64_t retries = 0;             ///< faulty attempts rolled back and retried
  uint64_t full_reruns = 0;         ///< retry budget exhausted -> full replay
  uint64_t backoff_units = 0;       ///< simulated backoff cost, min(base<<k, cap)
  uint64_t tuples_resent = 0;       ///< total recovery re-delivery volume
  uint64_t tuples_resent_crash = 0;       ///< ... due to server crashes
  uint64_t tuples_resent_corruption = 0;  ///< ... due to drop/duplicate
  uint64_t tuples_resent_full_rerun = 0;  ///< ... due to full reruns
  uint64_t max_single_resend = 0;     ///< largest per-server resend, any crash
  std::vector<double> attempts_samples;  ///< delivery attempts per faulted exchange
  std::vector<double> resent_samples;    ///< tuples resent per faulted exchange
  /// The implicit round checkpoint each injected exchange took: one
  /// capture per exchange, covering its pre-exchange destination rows.
  RoundCheckpointStore checkpoints;
};

/// The interposer. Install around a run (see ScopedFaultInjection) and
/// every charged exchange is delivered under the plan's fault schedule.
/// Thread-safe: concurrent Deliver calls work on disjoint delivery state
/// and merge into the injector's ledger under its lock.
class FaultInjector : public mpc::ExchangeInterposer {
 public:
  explicit FaultInjector(const FaultSpec& spec) : plan_(spec) {}
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// A copy of the recovery ledger of every exchange delivered so far.
  RecoveryLedger Ledger() const;

  uint64_t Deliver(mpc::ExchangeDelivery& delivery) override;

 private:
  FaultPlan plan_;
  mutable Mutex mutex_;
  RecoveryLedger ledger_ CP_GUARDED_BY(mutex_);
};

/// RAII installation of a FaultInjector as the process interposer. Nests:
/// exchanges inside an inner scope are delivered, and ledgered, by the
/// inner injector only, and the previously installed interposer (if any)
/// is restored on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultSpec& spec)
      : injector_(spec), previous_(mpc::ExchangeInterposer::Install(&injector_)) {}
  ~ScopedFaultInjection() { mpc::ExchangeInterposer::Install(previous_); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
  mpc::ExchangeInterposer* previous_;
};

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_FAULT_INJECTOR_H_
