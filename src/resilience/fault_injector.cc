#include "resilience/fault_injector.h"

#include <algorithm>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace resilience {

namespace {

/// One exchange's worth of recovery accounting, merged into the ledger
/// under the injector's lock once the exchange is delivered.
struct ExchangeRecord {
  bool faulted = false;
  uint64_t crashes = 0;
  uint64_t rows_dropped = 0;
  uint64_t rows_duplicated = 0;
  uint64_t retries = 0;
  bool full_rerun = false;
  uint64_t backoff_units = 0;
  uint64_t tuples_resent = 0;
  uint64_t tuples_resent_crash = 0;
  uint64_t tuples_resent_corruption = 0;
  uint64_t tuples_resent_full_rerun = 0;
  uint64_t max_single_resend = 0;
  uint64_t attempts = 0;  ///< total delivery attempts, incl. the clean one
};

void MergeRecord(const ExchangeRecord& record, RecoveryLedger* ledger) {
  ++ledger->exchanges_injected;
  if (!record.faulted) return;
  ++ledger->exchanges_faulted;
  ledger->crashes += record.crashes;
  ledger->rows_dropped += record.rows_dropped;
  ledger->rows_duplicated += record.rows_duplicated;
  ledger->retries += record.retries;
  if (record.full_rerun) ++ledger->full_reruns;
  ledger->backoff_units += record.backoff_units;
  ledger->tuples_resent += record.tuples_resent;
  ledger->tuples_resent_crash += record.tuples_resent_crash;
  ledger->tuples_resent_corruption += record.tuples_resent_corruption;
  ledger->tuples_resent_full_rerun += record.tuples_resent_full_rerun;
  ledger->max_single_resend = std::max(ledger->max_single_resend, record.max_single_resend);
  // Samples are integer counts stored as doubles: histogram sums over them
  // are exact in any accumulation order, which keeps reports bit-identical
  // across thread counts even though exchanges record concurrently.
  ledger->attempts_samples.push_back(static_cast<double>(record.attempts));
  ledger->resent_samples.push_back(static_cast<double>(record.tuples_resent));
}

}  // namespace

RecoveryLedger FaultInjector::Ledger() const {
  MutexLock lock(mutex_);
  return ledger_;
}

uint64_t FaultInjector::Deliver(mpc::ExchangeDelivery& delivery) {
  const mpc::ExchangePlan& plan = delivery.plan();
  const FaultSpec& spec = plan_.spec();
  // Uncharged exchanges (driver-side moves like the initial placement) and
  // empty plans are outside the fault model — deliver them untouched.
  if (!spec.active() || !delivery.charged() || plan.total_planned() == 0) {
    return delivery.Attempt();
  }

  const uint64_t key =
      FaultPlan::ExchangeKey(delivery.round(), delivery.label(), plan.total_planned(),
                             plan.recorded_planned(), plan.num_servers());
  {
    MutexLock lock(mutex_);
    ledger_.checkpoints.NoteCapture(delivery.round(), delivery.CheckpointedRows());
  }

  ExchangeRecord record;
  const bool row_faults_possible = spec.drop_rate > 0.0 || spec.duplicate_rate > 0.0;

  uint64_t delivered = 0;
  bool accepted = false;
  uint32_t attempt = 0;
  for (; attempt < spec.max_attempts; ++attempt) {
    // Crashes are decided up front per attempt: a crashed receiver loses
    // every message bound for it in this attempt. Servers that receive
    // nothing cannot observably crash.
    std::vector<uint8_t> crashed(plan.num_servers(), 0);
    uint64_t attempt_crashes = 0;
    for (uint32_t s = 0; s < plan.num_servers(); ++s) {
      if (plan.PlannedReceive(s) == 0) continue;
      if (plan_.CrashesDelivery(key, attempt, s)) {
        crashed[s] = 1;
        ++attempt_crashes;
      }
    }
    // No crash and no per-row fault stream: this attempt is provably
    // clean, so fall through to the coalesced clean delivery below.
    if (attempt_crashes == 0 && !row_faults_possible) break;

    uint64_t attempt_drops = 0;
    uint64_t attempt_dups = 0;
    std::vector<uint8_t> corrupted = crashed;
    const auto fate = [&](size_t source, uint32_t server,
                          size_t row) -> mpc::ExchangeDelivery::RowFate {
      if (crashed[server] != 0) return mpc::ExchangeDelivery::RowFate::kDrop;
      if (plan_.DropsRow(key, attempt, source, server, row)) {
        ++attempt_drops;
        corrupted[server] = 1;
        return mpc::ExchangeDelivery::RowFate::kDrop;
      }
      if (plan_.DuplicatesRow(key, attempt, source, server, row)) {
        ++attempt_dups;
        corrupted[server] = 1;
        return mpc::ExchangeDelivery::RowFate::kDuplicate;
      }
      return mpc::ExchangeDelivery::RowFate::kDeliver;
    };
    delivered = delivery.Attempt(fate);
    ++record.attempts;
    if (attempt_crashes == 0 && attempt_drops == 0 && attempt_dups == 0) {
      // The dice came up clean: the attempt delivered every message exactly
      // once, so it is accepted as-is.
      accepted = true;
      break;
    }

    // Faulty attempt: roll every destination back to its round checkpoint,
    // charge the recovery ledger, and retry with backoff.
    delivery.Restore();
    {
      MutexLock lock(mutex_);
      ledger_.checkpoints.NoteRestore(delivery.round());
    }
    record.faulted = true;
    ++record.retries;
    record.crashes += attempt_crashes;
    record.rows_dropped += attempt_drops;
    record.rows_duplicated += attempt_dups;
    const uint64_t shift = attempt < 63 ? attempt : 63;
    record.backoff_units += std::min(spec.backoff_base << shift, spec.backoff_cap);
    // Replaying the round re-sends each affected server its full planned
    // receive — by definition at most the round's bottleneck load each.
    for (uint32_t s = 0; s < plan.num_servers(); ++s) {
      if (corrupted[s] == 0) continue;
      const uint64_t amount = plan.PlannedReceive(s);
      record.tuples_resent += amount;
      if (crashed[s] != 0) {
        record.tuples_resent_crash += amount;
      } else {
        record.tuples_resent_corruption += amount;
      }
      record.max_single_resend = std::max(record.max_single_resend, amount);
    }
  }

  if (!accepted) {
    if (record.faulted && attempt >= spec.max_attempts) {
      // Retry budget exhausted: degrade gracefully to a full deterministic
      // rerun of the exchange, accounted at full plan volume.
      record.full_rerun = true;
      record.tuples_resent += plan.total_planned();
      record.tuples_resent_full_rerun += plan.total_planned();
    }
    delivered = delivery.Attempt();
    ++record.attempts;
  }
  {
    MutexLock lock(mutex_);
    MergeRecord(record, &ledger_);
  }
  return delivered;
}

}  // namespace resilience
}  // namespace coverpack
