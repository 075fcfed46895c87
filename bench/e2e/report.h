#ifndef TIC_BENCH_E2E_REPORT_H_
#define TIC_BENCH_E2E_REPORT_H_

// The benchmark's metric vocabulary (names, units, directions, regression
// bounds), its result line, and the --diff comparison of two sets of runs.

#include <string>
#include <vector>

#include "bench/e2e/harness.h"

namespace tic {
namespace e2e {

struct MetricDef {
  const char* name;
  const char* unit;
  bool lower_is_better;
  /// Share of the parent's median by which the metric may worsen before a
  /// change is a regression; 0 for per-layer metrics, which have no bound.
  double bound;
};

/// End-to-end metrics, reported by untraced runs, then per-layer metrics,
/// reported by traced runs.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

/// Prints the header line, one `metric <name> <value> <unit>` line per
/// metric, the notes, and as the last line the JSON result object.
void PrintRun(const RunOptions& options, const RunResult& result);

/// Compares run outputs (files holding a run's standard output) of set A
/// against set B, per workload and metric. Returns 1 when a metric is worse
/// than its bound, 2 on unreadable input, else 0.
int Diff(const std::vector<std::string>& a_files, const std::vector<std::string>& b_files);

}  // namespace e2e
}  // namespace tic

#endif  // TIC_BENCH_E2E_REPORT_H_
