// Span recording for the traced benchmark run, and the exchange-delivery
// timer. Spans are taken around the benchmark's own calls into the
// library's public functions; nothing inside src/ is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mpc/exchange.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One recorded call: its name ("<layer>.<call>"), its interval in ms since
/// the tracer was made, the span that enclosed it (-1 for none) and the id
/// of the operation it served.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;
  uint64_t query_id = 0;
};

/// Keeps spans in memory; a disabled tracer records nothing and costs one
/// branch per call. Spans are opened and closed from the main thread
/// only, in stack order.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index, or -1 when disabled.
  int64_t Begin(const char* name, uint64_t query_id);
  void End(int64_t span);

  /// Sum of the durations of every span called `name`.
  double SumMs(const std::string& name) const;

  /// Share of span `root`'s interval covered by its direct children.
  double ChildCoverage(int64_t root) const;

  /// Writes every span as a JSON array; returns false when the file could
  /// not be written.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query_id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, query_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// An exchange interposer that performs exactly the clean delivery the
/// Exchange layer would perform itself, and times it. Service batches
/// deliver from pool tasks, so the totals are atomic.
class DeliveryTimer final : public coverpack::mpc::ExchangeInterposer {
 public:
  uint64_t Deliver(coverpack::mpc::ExchangeDelivery& delivery) override;

  double total_ms() const { return static_cast<double>(total_ns_.load()) / 1e6; }

 private:
  std::atomic<uint64_t> total_ns_{0};
};

/// Installs an interposer for its lifetime. Construct and destroy only at
/// quiescent points (no exchange running), as ExchangeInterposer requires.
class ScopedInterposer {
 public:
  explicit ScopedInterposer(coverpack::mpc::ExchangeInterposer* interposer)
      : previous_(coverpack::mpc::ExchangeInterposer::Install(interposer)) {}
  ~ScopedInterposer() { coverpack::mpc::ExchangeInterposer::Install(previous_); }
  ScopedInterposer(const ScopedInterposer&) = delete;
  ScopedInterposer& operator=(const ScopedInterposer&) = delete;

 private:
  coverpack::mpc::ExchangeInterposer* previous_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
