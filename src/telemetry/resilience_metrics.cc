#include "telemetry/resilience_metrics.h"

#include <algorithm>
#include <vector>

namespace coverpack {
namespace telemetry {

void MergeRecoveryLedgerInto(const resilience::RecoveryLedger& ledger,
                             MetricsRegistry* registry) {
  static const std::vector<double> kAttemptBounds = {1.0, 2.0, 3.0, 4.0, 6.0, 8.0};
  static const std::vector<double> kResentBounds = {1.0, 10.0, 100.0, 1000.0,
                                                    1e4, 1e5,  1e6,   1e7};
  if (ledger.exchanges_injected == 0) return;
  registry->AddCounter("fault.exchanges_injected", ledger.exchanges_injected);
  registry->AddCounter("fault.exchanges_faulted", ledger.exchanges_faulted);
  registry->AddCounter("fault.crashes", ledger.crashes);
  registry->AddCounter("fault.rows_dropped", ledger.rows_dropped);
  registry->AddCounter("fault.rows_duplicated", ledger.rows_duplicated);
  registry->AddCounter("recovery.retries", ledger.retries);
  registry->AddCounter("recovery.full_reruns", ledger.full_reruns);
  registry->AddCounter("recovery.backoff_units", ledger.backoff_units);
  registry->AddCounter("recovery.tuples_resent", ledger.tuples_resent);
  registry->AddCounter("recovery.tuples_resent_crash", ledger.tuples_resent_crash);
  registry->AddCounter("recovery.tuples_resent_corruption",
                       ledger.tuples_resent_corruption);
  registry->AddCounter("recovery.tuples_resent_full_rerun",
                       ledger.tuples_resent_full_rerun);
  registry->AddCounter("recovery.checkpoints_captured", ledger.checkpoints.num_captures());
  registry->AddCounter("recovery.checkpoint_tuples", ledger.checkpoints.total_tuples());
  const char* kMaxResend = "recovery.max_single_resend";
  registry->SetGauge(kMaxResend, std::max(registry->GaugeValue(kMaxResend),
                                          static_cast<double>(ledger.max_single_resend)));
  Histogram& attempts =
      registry->GetHistogram("recovery.attempts_per_exchange", kAttemptBounds);
  for (double v : ledger.attempts_samples) attempts.Observe(v);
  Histogram& resent =
      registry->GetHistogram("recovery.resent_per_faulted_exchange", kResentBounds);
  for (double v : ledger.resent_samples) resent.Observe(v);
}

}  // namespace telemetry
}  // namespace coverpack
