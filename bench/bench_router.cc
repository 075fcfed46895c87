// Experiment A5: the fragment routes. Per-update steady-state cost of
// constraints the static classifier proves tractable, on the route the
// monitor gives them (point algebra / past evaluator). BENCH_pr9.json holds
// the same populations forced through the automaton machinery.
//
// The interesting population is the one cohorts CANNOT take: a letter shared
// through the rigid constant `sys` (Audit(sys)) welds every grounded instance
// into one letter-connected component, which outside the fragments would
// step on progression — a rewrite of every member plus a CheckSat of their
// conjunction on each update. The placement rule proves every member
// is a watched-literal fragment unit and steps only flip-touched units
// instead.
//
// Families:
//   SharedTrigger  — forall x . G ((Audit(sys) & Fill(x)) -> G Fill(x)): the
//     sticky-trigger fragment shape. The Fill(x) guard keeps the monitor's
//     fresh-element instance vacuous (a bare Audit(sys) antecedent would be
//     violated by every yet-unseen element the moment the audit fires).
//     Steady state has zero flips: the point backend does no work at all.
//   SharedTriggerChurn — same constraint, but Audit(sys) flips every measured
//     update: the point backend walks all N dirty units (its worst case).
//   PrecededBy — "no audited gap before the order's submission", in two
//     equivalent spellings: the future release spelling
//     Sub(x) R (!Audit(sys) | !Fill(x) | Sub(x)) on the point backend, and
//     the Proposition 2.1 past spelling
//     G (forall x . (Audit(sys) & Fill(x)) -> O Sub(x)) on the history-less
//     past evaluator.
//   Qtcn — a 4-event point-algebra chain E0 <= E1 <= E2 <= E3 per element,
//     letter-disjoint across elements, on the point backend: it should not
//     regress as N grows.
//
// --json as usual.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "checker/extension.h"
#include "checker/monitor.h"

namespace tic {
namespace {

// Interpretation of the rigid constant `sys`: one distinguished element the
// audit letter is applied to. It is in the relevant set (constants always
// are), so every family also satisfies its own constraint instance.
constexpr Value kSys = 9999;

struct RouterFixture {
  VocabularyPtr vocab;
  PredicateId audit = 0, sub = 0, fill = 0;
  PredicateId ev[4] = {0, 0, 0, 0};
  std::shared_ptr<fotl::FormulaFactory> factory;
  fotl::Formula shared_trigger = nullptr;  // forall x . G (Audit -> G Fill(x))
  fotl::Formula preceded_release = nullptr;  // Sub R (!Audit | Sub), future
  fotl::Formula preceded_past = nullptr;     // G (Audit -> O Sub(x)), past
  fotl::Formula qtcn_chain = nullptr;        // E0 <= E1 <= E2 <= E3

  RouterFixture() {
    auto v = std::make_shared<Vocabulary>();
    audit = *v->AddPredicate("Audit", 1);
    sub = *v->AddPredicate("Sub", 1);
    fill = *v->AddPredicate("Fill", 1);
    for (int i = 0; i < 4; ++i) {
      ev[i] = *v->AddPredicate("E" + std::to_string(i), 1);
    }
    (void)*v->AddConstant("sys");
    vocab = v;
    factory = std::make_shared<fotl::FormulaFactory>(vocab);
    shared_trigger = *fotl::Parse(
        factory.get(), "forall x . G ((Audit(sys) & Fill(x)) -> G Fill(x))");
    preceded_release = *fotl::Parse(
        factory.get(),
        "forall x . !((!Sub(x)) until (Audit(sys) & Fill(x) & !Sub(x)))");
    preceded_past = *fotl::Parse(
        factory.get(), "G (forall x . (Audit(sys) & Fill(x)) -> O Sub(x))");
    // first(Ei) at-or-before first(Ei+1), the weak point-algebra unit
    // Ei R (!Ei+1 | Ei) spelled through until.
    std::string chain;
    for (int i = 0; i < 3; ++i) {
      if (i > 0) chain += " & ";
      std::string a = "E" + std::to_string(i) + "(x)";
      std::string b = "E" + std::to_string(i + 1) + "(x)";
      chain += "!((!" + a + ") until (" + b + " & !" + a + "))";
    }
    qtcn_chain = *fotl::Parse(factory.get(), ("forall x . " + chain).c_str());
  }
};

RouterFixture& Fixture() {
  static RouterFixture* f = new RouterFixture();
  return *f;
}

void ReportRouting(benchmark::State& state,
                   const checker::MonitorVerdict& last) {
  state.counters["instances"] = static_cast<double>(last.num_instances);
  state.counters["pointalg_instances"] =
      static_cast<double>(last.num_pointalg_instances);
  state.counters["cohort_instances"] =
      static_cast<double>(last.num_cohort_instances);
}

// Steady-state empty updates over one Audit-welded component of N armed
// triggers. The point backend's O(flips-touched) claim at its best: zero
// flips.
void BM_Router_SharedTrigger(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.shared_trigger, {kSys});
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  // Arm every trigger; Fill stays asserted, so the stuck obligation holds.
  if (!monitor->ApplyTransaction({UpdateOp::Insert(fx.audit, {kSys})}).ok()) {
    state.SkipWithError("arm failed");
    return;
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
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
  ReportRouting(state, last);
}

// Same component, but the shared letter flips every measured update: every
// unit is touched every time — the point backend's worst case is still one
// flat pass over N units.
void BM_Router_SharedTriggerChurn(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.shared_trigger, {kSys});
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  Transaction arm{UpdateOp::Insert(fx.audit, {kSys})};
  Transaction disarm{UpdateOp::Delete(fx.audit, {kSys})};
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(i % 2 == 0 ? arm : disarm).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  bool armed = false;
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(armed ? disarm : arm);
    armed = !armed;
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
  ReportRouting(state, last);
}

// Two equivalent spellings of "no Audit before submission": `past` selects
// the past one.
void BM_Router_PrecededBy(benchmark::State& state, bool past) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  fotl::Formula phi = past ? fx.preceded_past : fx.preceded_release;
  auto monitor = *checker::Monitor::Create(fx.factory, phi, {kSys});
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.sub, {kSys}));
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(v)}));
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  // Audits only start after every order is submitted: satisfied forever.
  if (!monitor->ApplyTransaction({UpdateOp::Insert(fx.audit, {kSys})}).ok()) {
    state.SkipWithError("audit failed");
    return;
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
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
  state.counters["backend_past"] =
      last.backend == checker::MonitorBackend::kPastStateless ? 1 : 0;
  ReportRouting(state, last);
}

// Letter-disjoint 4-event order chains on the point backend (the cohort
// lockstep path would serve them too: BENCH_pr9.json's off rows).
void BM_Router_Qtcn(benchmark::State& state) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.qtcn_chain, {kSys});
  // Event waves in constraint order: every chain is satisfied.
  for (int e = 0; e < 4; ++e) {
    Transaction wave;
    for (size_t v = 1; v <= n; ++v) {
      wave.push_back(UpdateOp::Insert(fx.ev[e], {static_cast<Value>(v)}));
    }
    if (!monitor->ApplyTransaction(wave).ok()) {
      state.SkipWithError("wave failed");
      return;
    }
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
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
  ReportRouting(state, last);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("BM_Router_SharedTrigger", BM_Router_SharedTrigger)
      ->Arg(64)
      ->Arg(256)
      ->Arg(1024);
  benchmark::RegisterBenchmark("BM_Router_SharedTriggerChurn",
                               BM_Router_SharedTriggerChurn)
      ->Arg(64)
      ->Arg(256)
      ->Arg(1024);
  benchmark::RegisterBenchmark("BM_Router_Qtcn", BM_Router_Qtcn)
      ->Arg(64)
      ->Arg(256)
      ->Arg(1024);
  for (bool past : {false, true}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Router_PrecededBy/config:") +
         (past ? "past" : "pointalg"))
            .c_str(),
        [past](benchmark::State& s) { BM_Router_PrecededBy(s, past); })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
  }
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) {
  tic::RegisterAll();
  return tic::bench::RunBenchmarks(&argc, argv);
}
