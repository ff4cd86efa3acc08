/// \file cost_model.h
/// \brief Heterogeneity-aware makespan model over a finished run's loads.
///
/// The MPC load L = max_{r,s} load(r,s) is the paper's cost measure under
/// identical servers. With heterogeneous speeds the natural generalization
/// charges each round by its *slowest finisher* and the run by the sum of
/// rounds (rounds are synchronization barriers):
///
///     makespan = Σ_r  max_s  load(r, s) / speed(r, s)
///
/// where speed comes either from a FaultPlan's straggler schedule or from
/// a standalone per-server speed vector (a ClusterProfile's fleet — the
/// cost model works without any fault machinery). With uniform speeds this
/// collapses to Σ_r MaxLoadOfRound(r) — the round-summed load the paper's
/// O(1)-round bounds control — so the model strictly extends the paper's
/// measure. Computed post-run from the LoadTracker; nothing here mutates
/// simulator state.

#ifndef COVERPACK_RESILIENCE_COST_MODEL_H_
#define COVERPACK_RESILIENCE_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "mpc/load_tracker.h"
#include "resilience/fault_plan.h"

namespace coverpack {
namespace resilience {

/// Makespan of one run under one straggler schedule.
struct MakespanBreakdown {
  double makespan = 0.0;          ///< Σ_r max_s load(r,s)/speed(r,s)
  double uniform_makespan = 0.0;  ///< same with all speeds 1 (paper's measure)
  double slowdown = 1.0;          ///< makespan / uniform_makespan; 1 if no work
  uint32_t rounds = 0;            ///< rounds with nonzero load
  uint32_t straggler_bottlenecks = 0;  ///< rounds whose critical server straggled
  std::vector<double> round_makespans;  ///< per-round max_s load/speed
};

/// Evaluates the heterogeneous makespan of `tracker` under a standalone
/// per-server speed vector, constant across rounds (speeds.size() must be
/// >= tracker.num_servers(); all speeds > 0). A server counts as a
/// straggler bottleneck when its speed is below 1.
MakespanBreakdown SimulateMakespan(const LoadTracker& tracker,
                                   const std::vector<double>& speeds);

/// Evaluates the heterogeneous makespan of `tracker` under `plan`'s
/// straggler speeds, asking plan.SpeedOf(round, server) per round. A
/// straggler schedule varies by round, so it is not expressible as the
/// per-server vector above; both overloads share one evaluation core.
MakespanBreakdown SimulateMakespan(const LoadTracker& tracker, const FaultPlan& plan);

}  // namespace resilience
}  // namespace coverpack

#endif  // COVERPACK_RESILIENCE_COST_MODEL_H_
