#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t Tracer::Begin(const char* name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ms = MsBetween(epoch_, Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = query_id;
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ms = MsBetween(epoch_, Clock::now());
  // Spans nest strictly, so the one closed is the innermost open one.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::SumMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ms - span.start_ms;
  }
  return total;
}

double Tracer::ChildCoverage(int64_t root) const {
  if (root < 0) return 0.0;
  const Span& parent = spans_[static_cast<size_t>(root)];
  const double length = parent.end_ms - parent.start_ms;
  if (length <= 0.0) return 0.0;
  // Direct children never overlap: they are opened and closed in sequence.
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == root) covered += span.end_ms - span.start_ms;
  }
  return std::min(1.0, covered / length);
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << span.name << "\", \"start_ms\": "
        << span.start_ms << ", \"end_ms\": " << span.end_ms << ", \"parent\": "
        << span.parent << ", \"query_id\": " << span.query_id << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

uint64_t DeliveryTimer::Deliver(coverpack::mpc::ExchangeDelivery& delivery) {
  const Clock::time_point start = Clock::now();
  const uint64_t rows = delivery.Attempt();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  total_ns_.fetch_add(static_cast<uint64_t>(elapsed), std::memory_order_relaxed);
  return rows;
}

}  // namespace perfbench
