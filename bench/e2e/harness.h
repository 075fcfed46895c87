#ifndef TIC_BENCH_E2E_HARNESS_H_
#define TIC_BENCH_E2E_HARNESS_H_

// Closed-loop replay of one workload through the public API: one client
// thread commits a transaction to every monitor (and the trigger manager),
// waits for all verdicts, checks them, and only then sends the next one.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tic {
namespace e2e {

/// Verdict checks made and failed; a failed check is a wrong verdict, a wrong
/// verdict time, or an error returned by the library.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts one check; prints `what` to stderr when it failed.
  bool Check(bool ok, const std::string& what);
};

enum class Scale { kFull, kSmoke };

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Expect a violation on one healthy commit: the run must then report it.
  bool self_test = false;
};

struct RunResult {
  bool ok = false;  // false on a library error or an unknown workload
  Tally tally;
  std::vector<std::pair<std::string, double>> metrics;  // name, value
  std::vector<std::string> notes;  // human-readable lines
};

RunResult RunWorkload(const RunOptions& options);

const std::vector<std::string>& WorkloadNames();

}  // namespace e2e
}  // namespace tic

#endif  // TIC_BENCH_E2E_HARNESS_H_
