// Experiment E6: the universal potential-satisfaction monitor (Theorem 4.2)
// vs the Past FOTL history-less baseline (Chomicki [3]) on the same policy in
// its two formulations. Expected shape: the past baseline wins by orders of
// magnitude per update (no satisfiability phase), while only the universal
// monitor implements *potential* satisfaction exactly (eager detection,
// cf. the integration tests).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "checker/monitor.h"
#include "past/past_monitor.h"

namespace tic {
namespace {

bench::OrdersFixture& Fixture() {
  static bench::OrdersFixture* f = new bench::OrdersFixture();
  return *f;
}

Transaction StepTxn(const bench::OrdersFixture& fx, size_t t, size_t n) {
  Transaction txn;
  txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(t % n) + 1}));
  if (t > 0) {
    txn.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>((t - 1) % n) + 1}));
    txn.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>((t - 1) % n) + 1}));
    if (t > 1) {
      txn.push_back(UpdateOp::Delete(fx.fill, {static_cast<Value>((t - 2) % n) + 1}));
    }
  }
  return txn;
}

// Future formulation through the eager universal monitor.
void BM_UniversalMonitor_PerUpdate(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  static fotl::Formula policy = *fotl::Parse(
      fx.factory.get(), "forall x . G (Sub(x) -> X Fill(x))");
  auto monitor = *checker::Monitor::Create(fx.factory, policy);
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {  // make all n orders relevant up front
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
  }
  state.counters["orders"] = static_cast<double>(n);
}
BENCHMARK(BM_UniversalMonitor_PerUpdate)->Arg(2)->Arg(4)->Arg(8);

// Lazy (Lipeck–Saake-style) variant: progression only.
void BM_LazyMonitor_PerUpdate(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  static fotl::Formula policy = *fotl::Parse(
      fx.factory.get(), "forall x . G (Sub(x) -> X Fill(x))");
  auto monitor = *checker::Monitor::Create(fx.factory, policy, {}, {},
                                           checker::MonitorMode::kLazy);
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
  }
  state.counters["orders"] = static_cast<double>(n);
}
BENCHMARK(BM_LazyMonitor_PerUpdate)->Arg(2)->Arg(4)->Arg(8);

// Eager verdicts without history storage: the progression backend with
// Compact() after every update (z-pattern catch-up for fresh elements). The
// timed step is the update plus its compaction.
void BM_HistoryLessMonitor_PerUpdate(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  static fotl::Formula policy = *fotl::Parse(
      fx.factory.get(), "forall x . G (Sub(x) -> X Fill(x))");
  checker::CheckOptions options;
  options.backend = checker::MonitorBackend::kProgression;
  auto monitor = *checker::Monitor::Create(fx.factory, policy, {}, options);
  size_t t = 0;
  auto step = [&]() -> Result<checker::MonitorVerdict> {
    TIC_ASSIGN_OR_RETURN(checker::MonitorVerdict v,
                         monitor->ApplyTransaction(StepTxn(fx, t++, n)));
    TIC_RETURN_NOT_OK(monitor->Compact());
    return v;
  };
  for (size_t i = 0; i < n; ++i) {
    auto v = step();
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto v = step();
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
  }
  state.counters["orders"] = static_cast<double>(n);
  state.counters["history_states"] =
      static_cast<double>(monitor->history().length());
}
BENCHMARK(BM_HistoryLessMonitor_PerUpdate)->Arg(2)->Arg(4)->Arg(8);

// Past formulation through the history-less baseline.
void BM_PastMonitor_PerUpdate(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  static fotl::Formula policy = *fotl::Parse(
      fx.factory.get(), "forall x . G (Fill(x) -> Y Sub(x))");
  auto monitor = *past::PastMonitor::Create(fx.factory, policy);
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(StepTxn(fx, t++, n));
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->satisfied);
  }
  state.counters["orders"] = static_cast<double>(n);
  state.counters["aux_state"] = static_cast<double>(monitor->AuxiliaryStateSize());
}
BENCHMARK(BM_PastMonitor_PerUpdate)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace tic

TIC_BENCH_MAIN()
