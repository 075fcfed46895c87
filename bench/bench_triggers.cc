// Experiment E5: trigger evaluation via the Section 2 duality. Per-update cost
// = (#substitutions = |R_D|^params) x (one universal extension check each), so
// throughput degrades polynomially in |R_D| per parameter.
//
// Custom main: pass --threads=1,2,4 (default) to sweep the manager's worker
// count; the (trigger, substitution) jobs are independent and run on the
// pool. Substitutions over symmetric elements share one canonical tableau
// verdict, so the cache hit counters reported here should be nonzero.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "checker/trigger.h"
#include "ptl/verdict_cache.h"

namespace tic {
namespace {

bench::OrdersFixture& Fixture() {
  static bench::OrdersFixture* f = new bench::OrdersFixture();
  return *f;
}

checker::CheckOptions WithThreads(size_t threads,
                                  checker::MonitorBackend backend) {
  checker::CheckOptions opts;
  opts.threads = threads;
  opts.backend = backend;
  return opts;
}

void ReportCacheCounters(benchmark::State& state,
                         const checker::TriggerManager& mgr) {
  if (mgr.options().tableau.verdict_cache != nullptr) {
    ptl::VerdictCacheStats s = mgr.options().tableau.verdict_cache->stats();
    state.counters["cache_hits"] = static_cast<double>(s.hits);
    state.counters["cache_misses"] = static_cast<double>(s.misses);
  }
  if (mgr.options().automaton_cache != nullptr) {
    // Compiled-automaton sharing across substitutions (renaming-invariant
    // key): one compile per trigger pattern shape, hits for the rest.
    ptl::AutomatonCacheStats a = mgr.options().automaton_cache->stats();
    state.counters["auto_hits"] = static_cast<double>(a.hits);
    state.counters["auto_misses"] = static_cast<double>(a.misses);
  }
}

// One-parameter trigger over a growing relevant set.
void BM_Trigger_OneParam(benchmark::State& state, size_t threads,
                         checker::MonitorBackend backend) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<checker::TriggerManager> mgr;
  for (auto _ : state) {
    state.PauseTiming();
    mgr = *checker::TriggerManager::Create(
        fx.factory, {}, WithThreads(threads, backend));
    // "Order x was submitted and is certain to be resubmitted."
    auto st = mgr->AddTrigger(
        "dup", *fotl::Parse(fx.factory.get(), "F (Sub(x) & X F Sub(x))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    Transaction txn;
    for (size_t i = 1; i <= n; ++i) {
      txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(i)}));
    }
    state.ResumeTiming();
    auto firings = mgr->OnTransaction(txn);
    if (!firings.ok()) state.SkipWithError(firings.status().ToString().c_str());
    benchmark::DoNotOptimize(firings->size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["relevant"] = static_cast<double>(n);
  state.counters["substitutions"] = static_cast<double>(n);
  if (mgr != nullptr) ReportCacheCounters(state, *mgr);
}

// Two-parameter trigger: |R_D|^2 substitutions.
void BM_Trigger_TwoParams(benchmark::State& state, size_t threads,
                          checker::MonitorBackend backend) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<checker::TriggerManager> mgr;
  for (auto _ : state) {
    state.PauseTiming();
    mgr = *checker::TriggerManager::Create(
        fx.factory, {}, WithThreads(threads, backend));
    auto st = mgr->AddTrigger(
        "pair", *fotl::Parse(fx.factory.get(),
                             "x != y & Sub(x) & Sub(y) & F (Fill(x) & Fill(y))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    Transaction txn;
    for (size_t i = 1; i <= n; ++i) {
      txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(i)}));
    }
    state.ResumeTiming();
    auto firings = mgr->OnTransaction(txn);
    if (!firings.ok()) state.SkipWithError(firings.status().ToString().c_str());
    benchmark::DoNotOptimize(firings->size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["substitutions"] = static_cast<double>(n * n);
  if (mgr != nullptr) ReportCacheCounters(state, *mgr);
}

// A firing trigger (condition unavoidable) vs a quiet one on the same stream.
void BM_Trigger_FiringStream(benchmark::State& state) {
  auto& fx = Fixture();
  for (auto _ : state) {
    state.PauseTiming();
    auto mgr = *checker::TriggerManager::Create(fx.factory);
    auto st = mgr->AddTrigger(
        "dup", *fotl::Parse(fx.factory.get(), "F (Sub(x) & X F Sub(x))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    state.ResumeTiming();
    size_t total_firings = 0;
    // submit 1..4, retract, resubmit: every order eventually fires.
    for (Value v = 1; v <= 4; ++v) {
      auto f1 = mgr->OnTransaction({UpdateOp::Insert(fx.sub, {v})});
      auto f2 = mgr->OnTransaction({UpdateOp::Delete(fx.sub, {v})});
      auto f3 = mgr->OnTransaction({UpdateOp::Insert(fx.sub, {v})});
      if (!f1.ok() || !f2.ok() || !f3.ok()) state.SkipWithError("txn failed");
      total_firings += f1->size() + f2->size() + f3->size();
    }
    benchmark::DoNotOptimize(total_firings);
  }
}

void RegisterAll(const std::vector<size_t>& thread_counts,
                 const std::vector<checker::MonitorBackend>& backends) {
  for (checker::MonitorBackend backend : backends) {
    for (size_t threads : thread_counts) {
      std::string suffix = std::string("/backend:") +
                           bench::BackendName(backend) +
                           "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(
          ("BM_Trigger_OneParam" + suffix).c_str(),
          [threads, backend](benchmark::State& s) {
            BM_Trigger_OneParam(s, threads, backend);
          })
          ->Arg(2)
          ->Arg(4)
          ->Arg(8)
          ->Arg(16)
          ->Arg(32);
      benchmark::RegisterBenchmark(
          ("BM_Trigger_TwoParams" + suffix).c_str(),
          [threads, backend](benchmark::State& s) {
            BM_Trigger_TwoParams(s, threads, backend);
          })
          ->Arg(2)
          ->Arg(4)
          ->Arg(8);
    }
  }
  benchmark::RegisterBenchmark("BM_Trigger_FiringStream", BM_Trigger_FiringStream);
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
