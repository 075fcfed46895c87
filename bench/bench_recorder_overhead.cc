// In-process paired measurement of flight-recorder overhead on the warmed
// cohort steady-state step (the tightest hot path the recorder touches: one
// kTxnApplied event per empty-transaction update).
//
// Process-per-mode comparisons (two bench invocations with --recorder=on/off)
// are unusable on noisy or frequency-throttled hosts: run-to-run swing there
// exceeds +-10% while the effect being measured is a few percent. This
// harness alternates recorder-off and recorder-on phases within ONE process
// on the SAME warmed monitor, so slow drift (thermal, host steal time) hits
// both sides equally, and reports the median of per-pair deltas.
//
// Not a google-benchmark target on purpose: the phase alternation IS the
// methodology, and the library's repetition machinery cannot interleave two
// configurations. Usage:
//   bench_recorder_overhead [cohort|fifo] [phases] [iters_per_phase] [ring]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "checker/monitor.h"
#include "common/telemetry/recorder.h"

namespace tic {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Builds the warmed monitor plus the per-iteration transaction stream for
// one scenario. "cohort": BM_SubmitOnce_CohortSteadyState/shape:uniform/
// 10240 — empty updates, one kTxnApplied event each. "fifo":
// BM_Fifo_MonitorPerUpdate/backend:automaton/threads:1/256 — rolling 3-4 op
// transactions, so each update also records letter flips.
struct Scenario {
  std::unique_ptr<checker::Monitor> monitor;
  std::vector<Transaction> stream;  // cycled per iteration
};

bool MakeScenario(bench::OrdersFixture& fx, const std::string& name,
                  Scenario* out) {
  checker::CheckOptions opts;
  opts.backend = checker::MonitorBackend::kAutomaton;
  if (name == "cohort") {
    auto created =
        checker::Monitor::Create(fx.factory, fx.submit_once, {}, opts);
    if (!created.ok()) return false;
    out->monitor = std::move(*created);
    const size_t kInstances = 10240;
    Transaction grow, retract;
    for (size_t v = 1; v <= kInstances; ++v) {
      grow.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(v)}));
      retract.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>(v)}));
    }
    if (!out->monitor->ApplyTransaction(grow).ok()) return false;
    if (!out->monitor->ApplyTransaction(retract).ok()) return false;
    out->stream.push_back(Transaction{});
    return true;
  }
  // fifo: the rolling submit/fill pattern from BM_Fifo_MonitorPerUpdate,
  // warmed to 256 states; the stream cycles the same n-periodic updates.
  auto created = checker::Monitor::Create(fx.factory, fx.fifo, {}, opts);
  if (!created.ok()) return false;
  out->monitor = std::move(*created);
  const size_t n = 4;
  for (size_t t = 0; t < 256 + n; ++t) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(t % n) + 1}));
    if (t > 0) {
      txn.push_back(
          UpdateOp::Insert(fx.fill, {static_cast<Value>((t - 1) % n) + 1}));
      txn.push_back(
          UpdateOp::Delete(fx.sub, {static_cast<Value>((t - 1) % n) + 1}));
      if (t > 1) {
        txn.push_back(
            UpdateOp::Delete(fx.fill, {static_cast<Value>((t - 2) % n) + 1}));
      }
    }
    if (t < 256) {
      if (!out->monitor->ApplyTransaction(txn).ok()) return false;
    } else {
      out->stream.push_back(txn);  // one full period as the steady stream
    }
  }
  return true;
}

int Run(const std::string& scenario_name, int phases, int iters,
        size_t ring_capacity) {
  if (ring_capacity != 0) telemetry::SetRecorderRingCapacity(ring_capacity);
  bench::OrdersFixture fx;
  Scenario sc;
  if (!MakeScenario(fx, scenario_name, &sc)) {
    std::fprintf(stderr, "scenario %s failed to build\n",
                 scenario_name.c_str());
    return 1;
  }
  auto& monitor = sc.monitor;
  size_t cursor = 0;
  for (int i = 0; i < 64; ++i) {
    if (!monitor->ApplyTransaction(sc.stream[cursor++ % sc.stream.size()])
             .ok()) {
      return 1;
    }
  }

  std::vector<double> ns_off, ns_on;
  for (int p = 0; p < phases; ++p) {
    const bool on = (p & 1) != 0;
    telemetry::SetRecorderEnabled(on);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      auto v =
          monitor->ApplyTransaction(sc.stream[cursor++ % sc.stream.size()]);
      if (!v.ok()) {
        std::fprintf(stderr, "steady state: %s\n",
                     v.status().ToString().c_str());
        return 1;
      }
      benchmark::DoNotOptimize(v->potentially_satisfied);
    }
    auto t1 = std::chrono::steady_clock::now();
    (on ? ns_on : ns_off)
        .push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   iters);
  }
  telemetry::SetRecorderEnabled(true);

  std::vector<double> deltas;
  for (size_t i = 0; i < ns_off.size() && i < ns_on.size(); ++i) {
    deltas.push_back(100.0 * (ns_on[i] - ns_off[i]) / ns_off[i]);
  }
  std::printf("raw off:");
  for (double x : ns_off) std::printf(" %.1f", x);
  std::printf("\nraw on: ");
  for (double x : ns_on) std::printf(" %.1f", x);
  std::printf("\n");
  const double off = Median(ns_off), on = Median(ns_on);
  std::printf("scenario=%s phases=%d iters/phase=%d\n", scenario_name.c_str(),
              phases, iters);
  std::printf("recorder off: %.2f ns/update (median of %zu phases)\n", off,
              ns_off.size());
  std::printf("recorder on:  %.2f ns/update (median of %zu phases)\n", on,
              ns_on.size());
  std::printf("overhead: %+.2f%% (of-medians)  %+.2f%% (median of %zu paired "
              "deltas)\n",
              100.0 * (on - off) / off, Median(deltas), deltas.size());
  return 0;
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) {
  std::string scenario = argc > 1 ? argv[1] : "cohort";
  int phases = argc > 2 ? std::atoi(argv[2]) : 40;
  int iters = argc > 3 ? std::atoi(argv[3]) : 1000000;
  size_t ring = argc > 4 ? static_cast<size_t>(std::atoll(argv[4])) : 0;
  if ((scenario != "cohort" && scenario != "fifo") || phases < 2 ||
      iters < 1) {
    std::fprintf(stderr,
                 "usage: %s [cohort|fifo] [phases>=2] [iters_per_phase>=1] "
                 "[ring_capacity]\n",
                 argv[0]);
    return 2;
  }
  return tic::Run(scenario, phases, iters, ring);
}
