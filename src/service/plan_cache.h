/// \file plan_cache.h
/// \brief Structure-keyed LRU cache of planning artifacts.
///
/// A CachedPlan bundles everything the planner derives from a query's
/// shape and its instance's size profile: the LP numbers (rho*, tau*,
/// psi*), the join-forest / twig-decomposition summary, the execution
/// strategy, and the exchange-plan skeleton (Theorem 4's load threshold L
/// and the theoretical server demand at that L). Entries are keyed by
/// (shape hash, p, stats signature) — see query_shape.h — so two
/// isomorphic queries over same-sized relations share one entry no matter
/// how they were parsed.
///
/// The cache is a deterministic LRU: hit/miss/eviction sequences depend
/// only on the lookup order, which the service keeps serial (admission
/// order), so cache counters are bit-identical at any thread count. The
/// stored canonical form guards against shape-hash collisions: a key match
/// with a different form is reported as a collision and treated as a miss.

#ifndef COVERPACK_SERVICE_PLAN_CACHE_H_
#define COVERPACK_SERVICE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "planner/cost_model.h"
#include "util/mutex.h"
#include "util/rational.h"
#include "util/thread_annotations.h"

namespace coverpack {
namespace service {

/// Cache key: shape x sub-cluster size x relation-size profile.
struct PlanCacheKey {
  uint64_t shape_hash = 0;
  uint32_t p = 0;
  uint64_t stats_signature = 0;

  bool operator<(const PlanCacheKey& other) const {
    if (shape_hash != other.shape_hash) return shape_hash < other.shape_hash;
    if (p != other.p) return p < other.p;
    return stats_signature < other.stats_signature;
  }
  bool operator==(const PlanCacheKey& other) const {
    return shape_hash == other.shape_hash && p == other.p &&
           stats_signature == other.stats_signature;
  }
};

/// The reusable planning artifact for one (shape, p, stats) key.
struct CachedPlan {
  std::string canonical_form;  ///< collision guard (see PlanCache::Lookup)
  bool acyclic = false;
  planner::Algorithm strategy = planner::Algorithm::kOneRound;  ///< what executes
  Rational rho_star;  ///< fractional edge cover number
  Rational tau_star;  ///< fractional edge packing number
  Rational psi_star;  ///< edge quasi-packing number (one-round exponent)
  uint32_t join_tree_roots = 0;      ///< components of the join forest (acyclic)
  uint32_t max_s_family_size = 0;    ///< == rho* for acyclic queries (Thm 5)
  uint64_t load_threshold = 0;       ///< Theorem 4's L for this stats profile
  uint64_t theoretical_servers = 0;  ///< server demand at L (plan skeleton)
  uint64_t plan_cost_ticks = 0;      ///< simulated cost a cold plan pays
  // Chooser artifacts (src/planner): cached so telemetry can report
  // estimated-vs-actual error without re-planning on cache hits.
  uint64_t planner_est_load = 0;     ///< chooser's estimated bottleneck load
  uint64_t planner_out_estimate = 0; ///< join-order DP's OUT estimate
  std::string join_order;            ///< DP's intra-server join order
};

/// Monotone counters describing the cache's history.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t collisions = 0;  ///< key matched but canonical form differed
  uint64_t size = 0;        ///< current entry count (gauge, not monotone)
  uint64_t capacity = 0;

  /// Counter-wise difference (for per-run deltas); size/capacity are taken
  /// from `*this` (the later snapshot).
  PlanCacheStats Since(const PlanCacheStats& earlier) const;
};

/// A bounded, deterministic LRU cache of CachedPlan entries.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity);

  /// Returns a copy of the cached plan if the key is present AND the
  /// stored canonical form matches (the collision guard). Records a hit,
  /// a miss, or a collision (counted as a miss too) and refreshes recency
  /// on hits.
  std::optional<CachedPlan> Lookup(const PlanCacheKey& key,
                                   const std::string& canonical_form);

  /// Inserts (or overwrites) the entry, evicting the least recently used
  /// entry when at capacity.
  void Insert(const PlanCacheKey& key, CachedPlan plan);

  PlanCacheStats stats() const;
  size_t size() const;

  /// Drops all entries and resets the counters.
  void Clear();

 private:
  using LruList = std::list<std::pair<PlanCacheKey, CachedPlan>>;

  const size_t capacity_;
  mutable Mutex mutex_;
  LruList lru_ CP_GUARDED_BY(mutex_);  // front = most recently used
  std::map<PlanCacheKey, LruList::iterator> index_ CP_GUARDED_BY(mutex_);
  PlanCacheStats stats_ CP_GUARDED_BY(mutex_);
};

}  // namespace service
}  // namespace coverpack

#endif  // COVERPACK_SERVICE_PLAN_CACHE_H_
