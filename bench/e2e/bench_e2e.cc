// bench_e2e: end-to-end benchmark of commit-time constraint checking. One
// process, one client thread, a closed loop: every transaction is committed to
// all of the workload's monitors and its verdicts checked before the next one
// is sent. See README.md for the workloads and metrics.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--scale full|smoke] [--self-test]
//   bench_e2e --diff A1.out [A2.out ...] -- B1.out [B2.out ...]
//   bench_e2e --list

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "bench/e2e/report.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale full|smoke] [--self-test]\n"
               "       bench_e2e --diff A1.out [A2.out ...] -- B1.out [B2.out ...]\n"
               "       bench_e2e --list\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tic::e2e::RunOptions;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--diff") {
    std::vector<std::string> a, b;
    bool second = false;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--") {
        second = true;
      } else {
        (second ? b : a).push_back(args[i]);
      }
    }
    if (a.empty() || b.empty()) return Usage("--diff needs files on both sides of --");
    return tic::e2e::Diff(a, b);
  }
  if (!args.empty() && args[0] == "--list") {
    for (const std::string& w : tic::e2e::WorkloadNames()) std::printf("workload %s\n", w.c_str());
    for (const auto* table : {&tic::e2e::EndToEndMetrics(), &tic::e2e::LayerMetrics()}) {
      for (const auto& m : *table) {
        std::printf("metric %s %s %s %g\n", m.name, m.unit,
                    m.lower_is_better ? "lower" : "higher", m.bound);
      }
    }
    return 0;
  }

  RunOptions o;
  for (size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i], value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--self-test") {
      if (i + 1 >= args.size()) return Usage(("missing value for " + flag).c_str());
      value = args[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") return Usage("--scale takes full or smoke");
      o.scale = value == "full" ? tic::e2e::Scale::kFull : tic::e2e::Scale::kSmoke;
    } else if (flag == "--self-test") {
      o.self_test = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') return Usage(("bad number for " + flag).c_str());
  }
  bool known = false;
  for (const std::string& w : tic::e2e::WorkloadNames()) known |= w == o.workload;
  if (!known) return Usage(("unknown workload '" + o.workload + "'").c_str());

  tic::e2e::RunResult r = tic::e2e::RunWorkload(o);
  tic::e2e::PrintRun(o, r);
  return r.ok && r.tally.failed == 0 ? 0 : 1;
}
