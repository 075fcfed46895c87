// Differential fuzz suite for the automaton backend's fragment placements: on
// randomly generated constraints and update streams, the monitor — which
// steps point-algebra components through the watched-literal engine,
// atom-sharing release-fragment components as cohort slots, and the rest on
// progression — must produce exactly the per-update
// verdicts of the literal progression baseline. The shared oracle
// (testing/oracles.h) runs every case through both and, when the sentence is
// closed and always-past, through the past evaluator built directly, and
// fails on any sat/violated divergence.
//
// Five families:
//   A. Random safe sentences (1 and 2 variables) over churn streams with a
//      fresh element arriving mid-stream: most matrices fall OUTSIDE the
//      point-algebra fragment; the ones that fall inside exercise the
//      component-purity rule (2-variable cases share ground atoms across
//      instances, and a single unmatched member must keep its whole
//      letter-connected component off the point-algebra engine).
//   B. QTCN compilations: random point-algebra order constraints over event
//      first-occurrences, compiled to the release fragment. Every grounded
//      instance matches, so the whole case steps through the PointBackend —
//      the oracle additionally fails if nothing routed.
//   C. Pure-FO matrices under forall* G: the overlap fragment where the
//      Theorem 4.2 potential-satisfaction verdict and the classical G-past
//      verdict provably coincide, checked three ways (progression, automaton,
//      the past evaluator run directly).
//   D. Random 2-variable release-fragment sentences (X-free and safe), so
//      grounded instances share atoms and whole letter-connected components
//      step as cohort slots, ANDing their live bits. Two fresh elements
//      arrive mid-stream and every monitor compacts every 5 updates; the
//      lazy (Lipeck–Saake) verdict must equal the eager one at every update,
//      which the release fragment guarantees.
//   E. Family B's distribution with every monitor compacting every 1-3
//      updates: point-algebra units survive each fold, an instance no flip
//      reached keeps its formula, and the oracle's copy restored after each
//      fold rebuilds from the formulas the fold kept or rebased.
//
// Failure messages carry the full reproducer; re-run one case with
// TIC_REPLAY_SEED=<c>.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "checker/monitor.h"
#include "common/telemetry/recorder.h"
#include "fotl/parser.h"
#include "past/past_monitor.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

void ExpectRouterConfigsAgree(const tt::FotlCase& kase, const std::string& label,
                              const tt::RouterDiffOptions& options = {}) {
  auto r = tt::RouterConfigsAgree(kase, options);
  ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString()
                      << "\nreproducer:\n" << tt::SerializeCase(kase);
  ASSERT_TRUE(r->pass) << label << ": " << r->detail;
}

#ifdef TIC_TELEMETRY_ENABLED
// Route decisions naming the release route (backend code 3) in the flight
// recorder since its last reset; asserts each one placed slots on cohorts.
size_t ReleaseRouteDecisions() {
  size_t n = 0;
  for (const telemetry::RecordedEvent& e : telemetry::SnapshotRecorder()) {
    if (e.type == telemetry::EventType::kRouteDecision &&
        std::string(telemetry::RouteBackendName(e.a)) == "release") {
      ++n;
      EXPECT_GT(e.b, 0u);  // slots placed
      EXPECT_GT(e.c, 0u);  // cohorts in use
    }
  }
  return n;
}
#endif

TEST(RouterDiffTest, RandomSafeSentencesAgreeAcrossConfigs) {
  // Family A: 400 random safe sentences with the default generator knobs —
  // the same distribution the backend and cohort diff suites run, so any
  // verdict drift a placement introduces on general formulas shows up here.
  constexpr int kCases = 400;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x9e3779b9u + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    ExpectRouterConfigsAgree(kase, "caseA#" + std::to_string(c) +
                                       " (re-run with TIC_REPLAY_SEED=" +
                                       std::to_string(c) + ")");
  }
}

TEST(RouterDiffTest, QtcnCasesRouteAndAgree) {
  // Family B: 350 random QTCN compilations. min_routed = 1 guards coverage:
  // a generator or matcher drift that silently pushes these onto cohorts or
  // progression would otherwise turn the family into a no-op.
  constexpr int kCases = 350;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x85ebca6bu + static_cast<uint32_t>(c));
    tt::QtcnCase kase = tt::GenerateQtcnCase(&ent);
    tt::RouterDiffOptions options;
    options.min_routed = 1;
    ExpectRouterConfigsAgree(kase.fotl, "caseB#" + std::to_string(c), options);
  }
}

TEST(RouterDiffTest, QtcnCasesAgreeUnderCompaction) {
  // Family E: 150 QTCN compilations from family B's generator (own seeds),
  // compacted every 1-3 updates, with family B's coverage guard.
  constexpr int kCases = 150;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x165667b1u + static_cast<uint32_t>(c));
    tt::QtcnCase kase = tt::GenerateQtcnCase(&ent);
    tt::RouterDiffOptions options;
    options.min_routed = 1;
    options.compact_every = 1 + static_cast<size_t>(c) % 3;
    ExpectRouterConfigsAgree(kase.fotl, "caseE#" + std::to_string(c), options);
  }
}

TEST(RouterDiffTest, PureFoMatricesAgreeWithPastEvaluator) {
  // Family C: 300 pure-FO matrices (And/Or/Implies/Not over literals, no
  // temporal operator) under forall* G — always-past sentences, so the oracle
  // also runs the past evaluator on them directly, and its classical verdict
  // must match potential satisfaction.
  constexpr int kCases = 300;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0xc2b2ae35u + static_cast<uint32_t>(c));
    tt::CaseBuilder builder(2 + ent.Below(2));
    size_t num_vars = 1 + ent.Below(2);
    fotl::FormulaFactory& fac = *builder.factory();
    // Local pure-FO grammar, explicit work-list depth 2-3.
    std::function<fotl::Formula(int)> gen = [&](int depth) -> fotl::Formula {
      if (depth <= 0) return builder.Lit(&ent, num_vars);
      switch (ent.Below(4)) {
        case 0:
          return fac.And(gen(depth - 1), gen(depth - 1));
        case 1:
          return fac.Or(gen(depth - 1), gen(depth - 1));
        case 2:
          return fac.Implies(builder.LitConj(&ent, num_vars), gen(depth - 1));
        default:
          return fac.Not(gen(depth - 1));
      }
    };
    fotl::Formula matrix = gen(2 + static_cast<int>(ent.Below(2)));
    fotl::Formula phi = builder.Quantify(fac.Always(matrix), num_vars);
    size_t len = 5 + ent.Below(4);
    std::vector<Transaction> stream;
    for (size_t t = 0; t < len; ++t) {
      std::vector<Value> universe = {1, 2, 3};
      if (t >= len / 2) universe.push_back(4);
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), universe));
    }
    tt::FotlCase kase = builder.Finish(phi, num_vars, std::move(stream));
    ExpectRouterConfigsAgree(kase, "caseC#" + std::to_string(c));

    // The oracle compares with the past evaluator only when it accepts the
    // sentence, so it must accept every case of this family — except when
    // the matrix constant-folded away, leaving no G to evaluate.
    if (kase.sentence->kind() == fotl::NodeKind::kTrue ||
        kase.sentence->kind() == fotl::NodeKind::kFalse) {
      continue;
    }
    auto direct = past::PastMonitor::Create(kase.factory, kase.sentence);
    EXPECT_TRUE(direct.ok()) << "caseC#" << c << ": "
                             << direct.status().ToString();
  }
}

TEST(RouterDiffTest, ReleaseFragmentComponentsAgreeUnderCompaction) {
  // Family D: 400 random 2-variable release-fragment sentences. Coverage
  // guard, as family B's: the family fails unless at least 100 cases'
  // monitors recorded a release route decision (177 do), i.e. atom-sharing
  // components actually took the release route instead of progression.
  constexpr int kCases = 400;
  auto replay = tt::ReplaySeedFromEnv();
  tt::RouterDiffOptions options;
  options.compact_every = 5;
  options.lazy_equals_eager = true;
#ifdef TIC_TELEMETRY_ENABLED
  telemetry::SetRecorderEnabled(true);
  size_t release_cases = 0;
#endif
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x27d4eb2fu + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateReleaseCase(&ent);
#ifdef TIC_TELEMETRY_ENABLED
    telemetry::ResetRecorder();
#endif
    ExpectRouterConfigsAgree(kase,
                             "caseD#" + std::to_string(c) +
                                 " (re-run with TIC_REPLAY_SEED=" +
                                 std::to_string(c) + ")",
                             options);
#ifdef TIC_TELEMETRY_ENABLED
    if (ReleaseRouteDecisions() > 0) ++release_cases;
#endif
  }
#ifdef TIC_TELEMETRY_ENABLED
  if (!replay) {
    EXPECT_GE(release_cases, 100u)
        << "too few cases recorded a release route decision: the release "
           "route barely engaged";
  }
#endif
}

// The fifo constraint from bench_e2e over a Sub/Fill vocabulary. Every fifo
// pair is in the release fragment and pairs share their orders' atoms, so
// the pairs step as cohort slots.
struct Fifo {
  std::shared_ptr<Vocabulary> vocab = std::make_shared<Vocabulary>();
  PredicateId sub = *vocab->AddPredicate("Sub", 1);
  PredicateId fill = *vocab->AddPredicate("Fill", 1);
  std::shared_ptr<fotl::FormulaFactory> fac =
      std::make_shared<fotl::FormulaFactory>(vocab);
  Result<std::unique_ptr<Monitor>> Create() const {
    return Monitor::Create(
        fac, *fotl::Parse(fac.get(),
                          "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
                          "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))"));
  }
};

// fifo's planted violation: order b is filled while the earlier order a is
// still pending. The violation must be flagged at exactly the planting
// update, not before, and the recorder must name the release route.
TEST(RouterDiffTest, FifoPlantIsFlaggedAtItsInstant) {
  Fifo f;
  const PredicateId sub = f.sub;
  const PredicateId fill = f.fill;
  // Three orders served in order, then the plant over orders 10 and 11.
  std::vector<Transaction> stream;
  for (Value o = 1; o <= 3; ++o) {
    stream.push_back({UpdateOp::Insert(sub, {o})});
    stream.push_back({UpdateOp::Delete(sub, {o}), UpdateOp::Insert(fill, {o})});
    stream.push_back({UpdateOp::Delete(fill, {o})});
  }
  stream.push_back({UpdateOp::Insert(sub, {10})});
  stream.push_back({UpdateOp::Delete(sub, {10}), UpdateOp::Insert(sub, {11})});
  stream.push_back({UpdateOp::Delete(sub, {11}), UpdateOp::Insert(fill, {11})});
  const size_t plant = stream.size() - 1;

#ifdef TIC_TELEMETRY_ENABLED
  telemetry::SetRecorderEnabled(true);
  telemetry::ResetRecorder();
#endif
  auto m = f.Create();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  size_t max_slots = 0;
  for (size_t t = 0; t < stream.size(); ++t) {
    auto v = (*m)->ApplyTransaction(stream[t]);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v->potentially_satisfied, t != plant) << "t=" << t;
    EXPECT_EQ(v->permanently_violated, t == plant) << "t=" << t;
    if (t < plant) max_slots = std::max(max_slots, v->num_cohort_instances);
  }
  // Five orders give 5 * 4 ordered pairs; the diagonal and stand-in
  // instances ground to `true` and stay inert.
  EXPECT_EQ(max_slots, 20u);
#ifdef TIC_TELEMETRY_ENABLED
  EXPECT_GT(ReleaseRouteDecisions(), 0u)
      << "route_decision backend=release must name the route";
#endif
}

// Watch lists: after Compact() and a quiet update, every fifo pair slot is
// placed cold (no true letter). Sub(2) then turns true, and the flip must
// reach each of the four slots watching it, not just the first: the pair
// (2, 3) has to see order 2 pending, or filling order 3 first goes unflagged.
TEST(RouterDiffTest, FifoFlipsReachEveryWatchingSlot) {
  Fifo f;
  const PredicateId sub = f.sub;
  const PredicateId fill = f.fill;
  auto m = f.Create();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  for (Value o = 1; o <= 3; ++o) {
    for (const Transaction& x :
         {Transaction{UpdateOp::Insert(sub, {o})},
          Transaction{UpdateOp::Delete(sub, {o}), UpdateOp::Insert(fill, {o})},
          Transaction{UpdateOp::Delete(fill, {o})}}) {
      ASSERT_TRUE((*m)->ApplyTransaction(x).ok());
    }
  }
  ASSERT_TRUE((*m)->Compact().ok());
  const std::vector<Transaction> after = {
      {},
      {UpdateOp::Insert(sub, {2})},
      {UpdateOp::Delete(sub, {2}), UpdateOp::Insert(sub, {3})},
      {UpdateOp::Delete(sub, {3}), UpdateOp::Insert(fill, {3})}};
  for (size_t i = 0; i < after.size(); ++i) {
    auto v = (*m)->ApplyTransaction(after[i]);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v->permanently_violated, i + 1 == after.size()) << "i=" << i;
    EXPECT_EQ(v->num_cohort_instances, 6u);
  }
}

// Next keeps an atom-sharing component off the release route. Grounded over
// elements a != b, the sentence gives instance (a, a) the formula
// `G (P(a) -> X G !P(a))` and instance (a, b) the formula
// `G (Q(b) & R(a) -> X P(a))` (the R guard keeps the stand-in instances
// `true`). After the letter {P(a), Q(b), R(a)} each residual alone is
// satisfiable but together they are not (ptl_safety_test's counterexample),
// so ANDing per-slot live bits would miss the violation that both backends
// must report at once: the automaton backend keeps the component on
// progression.
TEST(RouterDiffTest, NextSharingComponentsStayJoint) {
  auto vocab = std::make_shared<Vocabulary>();
  PredicateId p = *vocab->AddPredicate("P", 1);
  PredicateId q = *vocab->AddPredicate("Q", 1);
  PredicateId r = *vocab->AddPredicate("R", 1);
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  auto phi = fotl::Parse(fac.get(),
                         "forall x y . (x = y -> G (P(x) -> X G !P(x))) & "
                         "(x != y -> G ((Q(y) & R(x)) -> X P(x)))");
  ASSERT_TRUE(phi.ok()) << phi.status().ToString();
  tt::FotlCase kase;
  kase.vocab = vocab;
  kase.factory = fac;
  kase.preds = {p, q, r};
  kase.num_vars = 2;
  kase.sentence = *phi;
  kase.stream = {{UpdateOp::Insert(p, {1}), UpdateOp::Insert(q, {2}),
                  UpdateOp::Insert(r, {1})},
                 {UpdateOp::Delete(p, {1})}};
  ExpectRouterConfigsAgree(kase, "next-sharing");
  auto m = Monitor::Create(fac, *phi);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  auto v = (*m)->ApplyTransaction(kase.stream[0]);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->permanently_violated);
}

TEST(RouterDiffTest, NonUniversalPastSentencesRouteToPastEvaluator) {
  // The past route: a closed `G A` with A past and internal quantification
  // (or a past operator) is not universal, so the Theorem 4.2 machinery
  // cannot take it; whatever backend is requested, it runs on the past
  // evaluator. A universal always-past sentence — a pure-FO matrix under
  // forall* G — keeps the requested backend, and its non-universal spelling
  // G (forall* matrix) takes the past route.
  auto vocab = std::make_shared<Vocabulary>();
  PredicateId sub = *vocab->AddPredicate("Sub", 1);
  PredicateId fill = *vocab->AddPredicate("Fill", 1);
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  fotl::VarId x = fac->InternVar("x");
  fotl::Formula fill_x = *fac->Atom(fill, {fotl::Term::Var(x)});
  fotl::Formula sub_x = *fac->Atom(sub, {fotl::Term::Var(x)});
  // G exists y ... would do too; keep the Prop 2.1 shape G A with A past.
  fotl::Formula phi =
      fac->Always(fac->Forall(x, fac->Implies(fill_x, fac->Once(sub_x))));
  fotl::Formula pure = fac->Implies(fill_x, sub_x);
  fotl::Formula universal = fac->Forall(x, fac->Always(pure));
  fotl::Formula inner = fac->Always(fac->Forall(x, pure));
  Transaction t0{UpdateOp::Insert(sub, {1})};
  Transaction t1{UpdateOp::Insert(fill, {2})};  // 2 was never submitted

  for (MonitorBackend backend :
       {MonitorBackend::kAutomaton, MonitorBackend::kProgression}) {
    CheckOptions options;
    options.backend = backend;
    for (auto [f, route] : {std::pair{universal, backend},
                            std::pair{inner, MonitorBackend::kPastStateless},
                            std::pair{phi, MonitorBackend::kPastStateless}}) {
      auto m = Monitor::Create(fac, f, {}, options);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      auto v0 = (*m)->ApplyTransaction(t0);
      ASSERT_TRUE(v0.ok());
      EXPECT_EQ(v0->backend, route);
      EXPECT_TRUE(v0->potentially_satisfied);
      auto v1 = (*m)->ApplyTransaction(t1);
      ASSERT_TRUE(v1.ok());
      EXPECT_FALSE(v1->potentially_satisfied);
      EXPECT_TRUE(v1->permanently_violated);
      EXPECT_EQ(v1->time, 1u);
      EXPECT_TRUE((*m)->current_state().Holds(fill, {2}));
    }
  }
  // The weak (Lipeck–Saake) mode has no past route, and the sentence is not
  // universal.
  EXPECT_FALSE(Monitor::Create(fac, phi, {}, {}, MonitorMode::kLazy).ok());
}

}  // namespace
}  // namespace checker
}  // namespace tic
