// perfbench: wall-time benchmark of the coverpack library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--final <0|1>]
//   perfbench --self-test
//
// One process of a benchmark run: builds the workload's inputs, warms up,
// times whole rounds for --seconds, checks every output, and prints what
// it measured as one JSON line on stdout (run.py merges the processes of a
// run into the reported metrics). With --trace 1 it also records spans,
// derives the per-layer metrics from them and writes the spans to
// perfbench_spans_<workload>_<seed>.json in the working directory. See
// README.md.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The global pool size, the same on every commit and host. One thread: on
/// a shared 4-core host, fanning out over 4 pool threads widened the
/// process-to-process spread of every timed metric (README.md, "Pool").
constexpr unsigned kPoolThreads = 1;

/// Prints what this process measured as one JSON line. run.py merges the
/// lines of the processes of one benchmark run into the reported metrics.
void PrintRaw(const Result& result) {
  std::ostringstream out;
  out << std::setprecision(12);
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"completed\": " << result.completed << ", \"timed_s\": " << result.timed_s
      << ", \"setup_s\": " << result.setup_s << ", \"peak_rss_mib\": " << result.peak_rss_mib
      << ", \"seed_max_load\": " << result.seed_max_load
      << ", \"seed_rounds\": " << result.seed_rounds
      << ", \"sim_max_load\": " << result.sim_max_load
      << ", \"sim_rounds\": " << result.sim_rounds << ", \"call_ms\": [";
  for (size_t t = 0; t < result.call_ms.size(); ++t) {
    out << (t > 0 ? ", " : "") << "[";
    for (size_t i = 0; i < result.call_ms[t].size(); ++i) {
      out << (i > 0 ? ", " : "") << result.call_ms[t][i];
    }
    out << "]";
  }
  out << "], \"layers\": {";
  for (size_t i = 0; i < result.layers.size(); ++i) {
    const auto& [name, value] = result.layers[i];
    out << (i > 0 ? ", " : "") << "\"" << name << "\": " << value;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Shows that a wrong output is counted: output_heavy with one reference
/// count off by one must fail exactly the timed calls on that instance,
/// and the same run with the true reference must fail none.
int SelfTest() {
  RunConfig config;
  config.seconds = 0.0;  // one timed round
  const Result clean = RunOutputHeavy(config);
  config.corrupt_reference = true;
  const Result corrupted = RunOutputHeavy(config);
  const bool ok = clean.failed == 0 && corrupted.failed > 0 &&
                  corrupted.failed < corrupted.attempted &&
                  corrupted.attempted == clean.attempted;
  std::cerr << "self-test: clean run " << clean.failed << "/" << clean.attempted
            << " failed; one wrong reference count: " << corrupted.failed << "/"
            << corrupted.attempted << " failed -> " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload service_longtail|skewed_acyclic|output_heavy"
            << " --seed N --seconds S --trace 0|1 [--final 0|1]\n       perfbench --self-test\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  coverpack::ThreadPool::SetGlobalThreads(kPoolThreads);

  std::string workload;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--final") {
      config.final_process = value == "1";
    } else {
      return Usage("unknown argument " + arg);
    }
  }

  Result result;
  if (workload == "service_longtail") {
    result = RunServiceLongtail(config);
  } else if (workload == "skewed_acyclic") {
    result = RunSkewedAcyclic(config);
  } else if (workload == "output_heavy") {
    result = RunOutputHeavy(config);
  } else {
    return Usage("unknown workload '" + workload + "'");
  }
  size_t samples = 0;
  for (const std::vector<double>& type : result.call_ms) samples += type.size();
  std::cerr << "perfbench: " << workload << " seed " << config.seed << ": "
            << result.completed << " queries in " << result.timed_s << " s, " << samples
            << " call samples, set-up " << result.setup_s
            << " s, " << result.failed << "/" << result.attempted << " failed\n";
  PrintRaw(result);
  return 0;
}
