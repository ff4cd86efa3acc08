/// \file resilience_metrics.h
/// \brief Bridges a FaultInjector's recovery ledger into a MetricsRegistry
/// (and therefore into RunReport / BENCH_results.json).
///
/// Same shape as exchange_metrics.h: cp_telemetry links cp_resilience, the
/// resilience layer exposes a plain-struct ledger, and this translates it
/// into the "fault.*" / "recovery.*" metric keys documented in
/// EXPERIMENTS.md.

#ifndef COVERPACK_TELEMETRY_RESILIENCE_METRICS_H_
#define COVERPACK_TELEMETRY_RESILIENCE_METRICS_H_

#include "resilience/fault_injector.h"
#include "telemetry/metrics.h"

namespace coverpack {
namespace telemetry {

/// Merges one injector's recovery ledger into `registry`: fault.* counters
/// (exchanges injected/faulted, crashes, rows dropped/duplicated) and
/// recovery.* counters/gauge/histograms (retries, full reruns, backoff
/// units, tuples resent with per-cause splits, checkpoint accounting, max
/// single resend, attempts and resend-volume distributions). Counters add,
/// histograms observe every sample, and the max-single-resend gauge keeps
/// the larger value, so writing several injectors' ledgers gives the same
/// keys and values as one ledger of all their exchanges. No-op when the
/// ledger saw no injected exchange, so fault-free reports keep their schema
/// byte-identical. Call from the thread that owns `registry`.
void MergeRecoveryLedgerInto(const resilience::RecoveryLedger& ledger,
                             MetricsRegistry* registry);

}  // namespace telemetry
}  // namespace coverpack

#endif  // COVERPACK_TELEMETRY_RESILIENCE_METRICS_H_
