// Experiment E2: runtime as a function of the history length t with the
// relevant set held fixed. Lemma 4.2 phase 1 is O(t * |phi_D|); phase 2 does
// not depend on t at all, so total time must grow linearly in t. The
// incremental monitor turns that into O(|phi_D|) amortized per update.
//
// Custom main: pass --threads=1,2,4 (default) to sweep the monitor's worker
// count; progression classes are progressed on the pool, verdicts are
// identical across thread counts by construction.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "checker/extension.h"
#include "checker/monitor.h"

namespace tic {
namespace {

bench::OrdersFixture& Fixture() {
  static bench::OrdersFixture* f = new bench::OrdersFixture();
  return *f;
}

// Batch re-check of the whole history: linear in t.
void BM_Fifo_HistorySweep(benchmark::State& state) {
  auto& fx = Fixture();
  size_t t = static_cast<size_t>(state.range(0));
  History h = fx.MakeHistory(t, /*num_orders=*/4, /*recycle=*/true);
  checker::CheckResult last;
  for (auto _ : state) {
    auto res = checker::CheckPotentialSatisfaction(*fx.factory, fx.fifo, h);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    last = *res;
    benchmark::DoNotOptimize(last.potentially_satisfied);
  }
  state.counters["t"] = static_cast<double>(t);
  state.counters["relevant"] = static_cast<double>(last.grounding_stats.relevant_size);
  state.counters["residual_size"] = static_cast<double>(last.residual_size);
  state.counters["satisfied"] = last.potentially_satisfied ? 1 : 0;
  state.SetComplexityN(static_cast<int64_t>(t));
}

// Incremental monitoring: per-update cost stays flat as the history grows.
// `threads` sizes the pool progressing deduplicated residual classes (the
// automaton backend's steady-state updates are memoized lookups, so its
// per-update cost is flat AND thread-independent).
void BM_Fifo_MonitorPerUpdate(benchmark::State& state, size_t threads,
                              checker::MonitorBackend backend) {
  auto& fx = Fixture();
  size_t warmup = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  opts.threads = threads;
  opts.backend = backend;
  auto monitor = *checker::Monitor::Create(fx.factory, fx.fifo, {}, opts);
  // Grow the history to `warmup` states first.
  size_t n = 4;
  for (size_t t = 0; t < warmup; ++t) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(t % n) + 1}));
    if (t > 0) {
      txn.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>((t - 1) % n) + 1}));
      txn.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>((t - 1) % n) + 1}));
      if (t > 1) {
        txn.push_back(
            UpdateOp::Delete(fx.fill, {static_cast<Value>((t - 2) % n) + 1}));
      }
    }
    auto v = monitor->ApplyTransaction(txn);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  size_t t = warmup;
  checker::MonitorVerdict last;
  for (auto _ : state) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(t % n) + 1}));
    txn.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>((t - 1) % n) + 1}));
    txn.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>((t - 1) % n) + 1}));
    txn.push_back(UpdateOp::Delete(fx.fill, {static_cast<Value>((t - 2) % n) + 1}));
    auto v = monitor->ApplyTransaction(txn);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
    ++t;
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["start_length"] = static_cast<double>(warmup);
  state.counters["end_length"] =
      static_cast<double>(monitor->last_verdict().time + 1);
  state.counters["instances"] = static_cast<double>(last.num_instances);
  state.counters["residual_classes"] = static_cast<double>(last.num_residual_classes);
  state.counters["cache_hits"] = static_cast<double>(last.verdict_cache_stats.hits);
  state.counters["cache_misses"] = static_cast<double>(last.verdict_cache_stats.misses);
  if (backend == checker::MonitorBackend::kAutomaton) {
    // Cohort table effectiveness (fifo's pairs step as release cohort
    // slots): in steady state hits/steps -> 1 and the tableau never runs
    // (live_queries counts cohort states, not updates).
    state.counters["memo_hits"] = static_cast<double>(last.automaton_stats.memo_hits);
    state.counters["memo_steps"] = static_cast<double>(last.automaton_stats.steps);
    state.counters["auto_states"] = static_cast<double>(last.automaton_stats.num_states);
    state.counters["live_queries"] = static_cast<double>(last.automaton_stats.live_queries);
  }
}

// Cross-instance lockstep stepping: per-update cost of the automaton backend
// over a symmetric population of `instances` letter-disjoint submit-once
// instances, which step as cohort slots. Shapes:
//   uniform — every order is submitted at t0 and retracted at t1, so all
//     slots share one state and the cohort advances with a single table-cell
//     read per update.
//   mixed — half the orders are submitted+retracted, half only ever named by
//     Fill, parking the population in two distinct states: every update runs
//     the word-parallel dense-table gather across all slots.
void BM_SubmitOnce_CohortSteadyState(benchmark::State& state, bool mixed) {
  auto& fx = Fixture();
  size_t instances = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  opts.backend = checker::MonitorBackend::kAutomaton;
  auto monitor = *checker::Monitor::Create(fx.factory, fx.submit_once, {}, opts);
  size_t submitted = mixed ? instances / 2 : instances;
  Transaction grow;
  for (size_t v = 1; v <= instances; ++v) {
    if (v <= submitted) {
      grow.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(v)}));
    } else {
      grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
    }
  }
  Transaction retract;
  for (size_t v = 1; v <= submitted; ++v) {
    retract.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>(v)}));
  }
  auto grown = monitor->ApplyTransaction(grow);
  if (!grown.ok()) {
    state.SkipWithError(grown.status().ToString().c_str());
    return;
  }
  auto retracted = monitor->ApplyTransaction(retract);
  if (!retracted.ok()) {
    state.SkipWithError(retracted.status().ToString().c_str());
    return;
  }
  for (int i = 0; i < 32; ++i) {
    auto v = monitor->ApplyTransaction(Transaction{});
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(Transaction{});
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
  }
  if (!last.potentially_satisfied) {
    state.SkipWithError("monitor died in steady state");
    return;
  }
  state.counters["instances"] = static_cast<double>(last.num_instances);
  state.counters["cohorts"] = static_cast<double>(last.num_cohorts);
  state.counters["cohort_instances"] =
      static_cast<double>(last.num_cohort_instances);
  state.counters["memo_hits"] =
      static_cast<double>(last.automaton_stats.memo_hits);
  state.counters["memo_steps"] = static_cast<double>(last.automaton_stats.steps);
  state.counters["state_sets"] =
      static_cast<double>(last.automaton_stats.num_state_sets);
}

void RegisterAll(const std::vector<size_t>& thread_counts,
                 const std::vector<checker::MonitorBackend>& backends) {
  benchmark::RegisterBenchmark("BM_Fifo_HistorySweep", BM_Fifo_HistorySweep)
      ->RangeMultiplier(2)
      ->Range(8, 512)
      ->Complexity(benchmark::oN);
  for (checker::MonitorBackend backend : backends) {
    for (size_t threads : thread_counts) {
      std::string name = std::string("BM_Fifo_MonitorPerUpdate/backend:") +
                         bench::BackendName(backend) +
                         "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [threads, backend](benchmark::State& s) {
            BM_Fifo_MonitorPerUpdate(s, threads, backend);
          })
          ->Arg(8)
          ->Arg(64)
          ->Arg(256);
    }
  }
  for (bool mixed : {false, true}) {
    std::string name = std::string("BM_SubmitOnce_CohortSteadyState/shape:") +
                       (mixed ? "mixed" : "uniform");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [mixed](benchmark::State& s) { BM_SubmitOnce_CohortSteadyState(s, mixed); })
        ->Arg(1024)
        ->Arg(10240);
  }
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) {
  std::vector<size_t> threads = tic::bench::ParseThreads(&argc, argv, {1, 2, 4});
  std::vector<tic::checker::MonitorBackend> backends = tic::bench::ParseBackends(
      &argc, argv,
      {tic::checker::MonitorBackend::kAutomaton,
       tic::checker::MonitorBackend::kProgression});
  tic::RegisterAll(threads, backends);
  return tic::bench::RunBenchmarks(&argc, argv);
}
