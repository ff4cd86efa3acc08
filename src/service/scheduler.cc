#include "service/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace coverpack {
namespace service {

LeaseManager::LeaseManager(uint32_t total_servers) : total_(total_servers) {
  CP_CHECK(total_ > 0);
  free_[0] = total_;
}

SubClusterLease LeaseManager::Carve(std::map<uint32_t, uint32_t>::iterator it,
                                    uint32_t size) {
  SubClusterLease lease{it->first, size};
  const uint32_t remaining = it->second - size;
  const uint32_t new_start = it->first + size;
  free_.erase(it);
  if (remaining > 0) free_[new_start] = remaining;
  leased_ += size;
  peak_ = std::max(peak_, leased_);
  leased_capacity_ += CapacityOf(lease);
  peak_capacity_ = std::max(peak_capacity_, leased_capacity_);
  return lease;
}

std::optional<SubClusterLease> LeaseManager::AcquireCapacity(double capacity) {
  CP_CHECK(capacity > 0.0);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    double sum = 0.0;
    for (uint32_t k = 0; k < it->second; ++k) {
      sum += SpeedOf(it->first + k);
      if (sum >= capacity) return Carve(it, k + 1);
    }
  }
  return std::nullopt;
}

void LeaseManager::Release(const SubClusterLease& lease) {
  CP_CHECK(lease.size > 0);
  CP_CHECK_LE(lease.first_server + lease.size, total_);
  CP_CHECK_LE(lease.size, leased_);
  uint32_t start = lease.first_server;
  uint32_t length = lease.size;
  // Coalesce with the successor interval, then with the predecessor.
  auto next = free_.lower_bound(start);
  if (next != free_.end() && next->first == start + length) {
    length += next->second;
    free_.erase(next);
  }
  if (!free_.empty()) {
    auto prev = free_.lower_bound(start);
    if (prev != free_.begin()) {
      --prev;
      if (prev->first + prev->second == start) {
        start = prev->first;
        length += prev->second;
        free_.erase(prev);
      }
    }
  }
  free_[start] = length;
  leased_ -= lease.size;
  leased_capacity_ -= CapacityOf(lease);
}

void LeaseManager::SetSpeeds(std::vector<double> speeds) {
  CP_CHECK_EQ(leased_, 0u);
  if (!speeds.empty()) {
    CP_CHECK_EQ(speeds.size(), static_cast<size_t>(total_));
    for (double speed : speeds) CP_CHECK(speed > 0.0);
  }
  speeds_ = std::move(speeds);
}

void LeaseManager::Resize(uint32_t new_total) {
  CP_CHECK(new_total > 0);
  if (new_total > total_) {
    // Grow: hand the new tail to Release's coalescing path by treating it
    // as a synthetic lease of the appended range.
    const SubClusterLease tail{total_, new_total - total_};
    if (!speeds_.empty()) speeds_.resize(new_total, 1.0);
    total_ = new_total;
    leased_ += tail.size;  // balance the Release bookkeeping below
    leased_capacity_ += CapacityOf(tail);
    Release(tail);
  } else if (new_total < total_) {
    // Shrink: the removed tail must sit entirely inside one free interval
    // that runs to the end of the pool.
    auto it = free_.upper_bound(new_total);
    if (it != free_.begin()) --it;
    CP_CHECK(it != free_.end());
    CP_CHECK_LE(it->first, new_total);
    CP_CHECK_EQ(it->first + it->second, total_);
    const uint32_t kept = new_total - it->first;
    if (kept > 0) {
      it->second = kept;
    } else {
      free_.erase(it);
    }
    if (!speeds_.empty()) speeds_.resize(new_total);
    total_ = new_total;
  }
}

double LeaseManager::SpeedOf(uint32_t server) const {
  CP_CHECK_LT(server, total_);
  return speeds_.empty() ? 1.0 : speeds_[server];
}

double LeaseManager::CapacityOf(const SubClusterLease& lease) const {
  double sum = 0.0;
  for (uint32_t k = 0; k < lease.size; ++k) sum += SpeedOf(lease.first_server + k);
  return sum;
}

void SimEventQueue::Push(SimEvent event) {
  event.seq = next_seq_++;
  heap_.push(event);
}

SimEvent SimEventQueue::PopMin() {
  CP_CHECK(!heap_.empty());
  SimEvent event = heap_.top();
  heap_.pop();
  return event;
}

}  // namespace service
}  // namespace coverpack
