// The benchmark's three workloads. Each one builds its inputs from the
// seed, warms up, times whole round-robin rounds of its operations for the
// requested number of seconds, and then checks every output against the
// sequential oracle or a property the method must have.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The last process of a run: it also runs the costly after-phase checks
  /// against the sequential oracle (service_longtail, skewed_acyclic) and
  /// measures the sim_* figures on the reference inputs. The timed
  /// operations' own checks (repeated loads, served arrivals, output_heavy's
  /// counts) run in every process.
  bool final_process = true;
  /// Feeds the output checks one wrong reference count (output_heavy
  /// only), to show that a wrong output is counted as a failed operation.
  bool corrupt_reference = false;
};

/// What one workload run measured.
struct Result {
  uint64_t attempted = 0;  ///< operations attempted (timed calls, served queries, checks)
  uint64_t failed = 0;     ///< operations whose output check failed
  uint64_t completed = 0;  ///< queries completed in the timed phase
  double timed_s = 0.0;    ///< wall time of the timed phase
  /// Per call type (the i-th operation of a round): one sample per timed
  /// call, its wall ms per query it completed.
  std::vector<std::vector<double>> call_ms;
  double setup_s = 0.0;       ///< wall time of building the inputs
  double peak_rss_mib = 0.0;  ///< peak resident set when the timed phase ended
  /// Geometric mean of per-query max load and mean rounds per query on this
  /// run's seeded inputs: the processes of a run must agree on them.
  double seed_max_load = 0.0;
  double seed_rounds = 0.0;
  /// The same figures on the reference inputs, which are drawn from a fixed
  /// seed (final process only), so they repeat across seeds and commits.
  double sim_max_load = 0.0;
  double sim_rounds = 0.0;
  /// Per-layer metrics, filled by the traced run only.
  std::vector<std::pair<std::string, double>> layers;
};

Result RunServiceLongtail(const RunConfig& config);
Result RunSkewedAcyclic(const RunConfig& config);
Result RunOutputHeavy(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
