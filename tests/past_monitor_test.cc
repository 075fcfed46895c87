// Tests for the Past FOTL baseline (history-less checking, Chomicki [3]):
// correctness against the direct finite-history evaluator, first-violation
// reporting, auxiliary-state boundedness, and fresh-element canonicalization.

#include <gtest/gtest.h>

#include <random>

#include "fotl/classify.h"
#include "fotl/evaluator.h"
#include "fotl/parser.h"
#include "past/past_monitor.h"

namespace tic {
namespace past {
namespace {

class PastMonitorTest : public ::testing::Test {
 protected:
  PastMonitorTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
  }

  fotl::Formula Parse_(const std::string& s) { return *fotl::Parse(fac_.get(), s); }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills,
                  std::vector<Value> unsubs = {}, std::vector<Value> unfills = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    for (Value v : unsubs) t.push_back(UpdateOp::Delete(sub_, {v}));
    for (Value v : unfills) t.push_back(UpdateOp::Delete(fill_, {v}));
    return t;
  }

  VocabularyPtr vocab_;
  PredicateId sub_, fill_;
  std::shared_ptr<fotl::FormulaFactory> fac_;
};

TEST_F(PastMonitorTest, CreateValidatesShape) {
  EXPECT_TRUE(PastMonitor::Create(fac_, Parse_("forall x . G (Sub(x) -> F Fill(x))"))
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(PastMonitor::Create(fac_, Parse_("forall x . Sub(x)"))
                  .status()
                  .IsNotSupported());  // no G
  EXPECT_TRUE(
      PastMonitor::Create(fac_, Parse_("G Sub(x)")).status().IsInvalidArgument());
  EXPECT_TRUE(
      PastMonitor::Create(fac_, Parse_("forall x . G (Fill(x) -> O Sub(x))")).ok());
}

TEST_F(PastMonitorTest, FillRequiresPriorSubmission) {
  // G (Fill(x) -> O Sub(x)): every fill was preceded (or accompanied) by a
  // submission.
  auto m = *PastMonitor::Create(fac_, Parse_("forall x . G (Fill(x) -> O Sub(x))"));
  auto v0 = m->ApplyTransaction(Txn({1}, {}));
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->satisfied);
  auto v1 = m->ApplyTransaction(Txn({}, {1}));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->satisfied);
  auto v2 = m->ApplyTransaction(Txn({}, {2}));  // 2 was never submitted
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->satisfied);
  EXPECT_EQ(v2->first_violation, std::optional<size_t>(2));
  // Violations of G-constraints are permanent; first_violation sticks.
  auto v3 = m->ApplyTransaction(Txn({2}, {}, {}, {2}));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->first_violation, std::optional<size_t>(2));
}

TEST_F(PastMonitorTest, SinceSemantics) {
  // G (Fill(x) -> (!Sub(x)) since Sub(x)) is awkward; use a cleaner one:
  // G (Fill(x) -> Y O Sub(x)): fills must come strictly after submission.
  auto m =
      *PastMonitor::Create(fac_, Parse_("forall x . G (Fill(x) -> Y O Sub(x))"));
  auto v0 = m->ApplyTransaction(Txn({1}, {1}));  // same-instant fill: violation
  ASSERT_TRUE(v0.ok());
  EXPECT_FALSE(v0->satisfied);

  auto m2 =
      *PastMonitor::Create(fac_, Parse_("forall x . G (Fill(x) -> Y O Sub(x))"));
  ASSERT_TRUE(m2->ApplyTransaction(Txn({1}, {})).ok());
  auto v1 = m2->ApplyTransaction(Txn({}, {1}));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->satisfied);
}

TEST_F(PastMonitorTest, SubmitOncePastFormulation) {
  // The submit-once constraint in past form: G (Sub(x) -> !(Y O Sub(x))).
  auto m = *PastMonitor::Create(
      fac_, Parse_("forall x . G (Sub(x) -> !(Y O Sub(x)))"));
  ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {})).ok());
  auto v1 = m->ApplyTransaction(Txn({}, {}, {7}));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->satisfied);
  auto v2 = m->ApplyTransaction(Txn({7}, {}));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->satisfied);
  EXPECT_EQ(v2->first_violation, std::optional<size_t>(2));
}

TEST_F(PastMonitorTest, FreshElementsCanonicalizeCorrectly) {
  // G (Sub(x) -> !(Y O Fill(x))): submissions must not follow fills. Element 9
  // appears for the first time at t=2 as a submission; its past must read
  // "never filled", via the fresh-element stand-in canonicalization.
  auto m2 = *PastMonitor::Create(
      fac_, Parse_("forall x . G (Sub(x) -> !(Y O Fill(x)))"));
  ASSERT_TRUE(m2->ApplyTransaction(Txn({1}, {})).ok());
  // Retract Sub(1) while filling it (states copy forward otherwise).
  ASSERT_TRUE(m2->ApplyTransaction(Txn({}, {1}, {1})).ok());
  auto v = m2->ApplyTransaction(Txn({9}, {}));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->satisfied);  // 9 was never filled before
  // But submitting 1 again (it was filled at t=1) violates.
  auto v2 = m2->ApplyTransaction(Txn({1}, {}, {}, {1}));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->satisfied);
}

TEST_F(PastMonitorTest, InternalQuantifiersAllowed) {
  // The past baseline handles internal quantification (unlike the universal
  // checker): G ((exists x . Fill(x)) -> (exists y . Sub(y))).
  auto m = *PastMonitor::Create(
      fac_, Parse_("G ((exists x . Fill(x)) -> (exists y . O Sub(y)))"));
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {})).ok());
  EXPECT_TRUE(m->last_verdict().satisfied);
  auto v1 = m->ApplyTransaction(Txn({}, {5}));
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->satisfied);  // a fill with no submission ever
}

TEST_F(PastMonitorTest, AgreesWithDirectEvaluatorOnRandomStreams) {
  std::vector<std::string> constraints = {
      "forall x . G (Fill(x) -> O Sub(x))",
      "forall x . G (Sub(x) -> !(Y O Sub(x)))",
      "forall x . G ((Sub(x) since Fill(x)) -> Sub(x))",
      "forall x y . G ((Fill(x) & Fill(y)) -> x = y | O (Sub(x) & Sub(y)))",
  };
  for (const std::string& text : constraints) {
    fotl::Formula constraint = Parse_(text);
    std::vector<fotl::VarId> external;
    fotl::Formula body = nullptr;
    fotl::StripUniversalPrefix(constraint, &external, &body);
    fotl::Formula matrix = body->child(0);

    for (int seed = 0; seed < 8; ++seed) {
      std::mt19937 rng(seed * 97 + 13);
      auto m = PastMonitor::Create(fac_, constraint);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      History reference = *History::Create(vocab_);
      for (int step = 0; step < 7; ++step) {
        std::vector<Value> subs, fills;
        if (rng() % 2) subs.push_back(1 + rng() % 3);
        if (rng() % 2) fills.push_back(1 + rng() % 3);
        Transaction txn = Txn(subs, fills);
        auto verdict = (*m)->ApplyTransaction(txn);
        ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
        ASSERT_TRUE(ApplyTransaction(&reference, txn).ok());

        // Direct evaluation of the matrix at the newest instant, over the
        // relevant set plus stand-ins.
        std::vector<Value> domain = reference.RelevantSet();
        size_t fresh = external.size() + fotl::CountDistinctBoundVars(matrix) + 1;
        for (size_t i = 0; i < fresh; ++i) domain.push_back(-1 - (Value)i);
        fotl::FiniteHistoryEvaluator ev(&reference, domain);
        bool expected = true;
        std::vector<size_t> idx(external.size(), 0);
        while (expected) {
          fotl::Valuation val;
          for (size_t i = 0; i < external.size(); ++i) {
            val[external[i]] = domain[idx[i]];
          }
          auto direct = ev.EvaluateAt(matrix, val, reference.length() - 1);
          ASSERT_TRUE(direct.ok()) << direct.status().ToString();
          if (!*direct) expected = false;
          size_t d = 0;
          while (d < external.size() && ++idx[d] == domain.size()) {
            idx[d] = 0;
            ++d;
          }
          if (d == external.size()) break;
        }
        EXPECT_EQ(verdict->satisfied, expected)
            << text << " seed " << seed << " step " << step;
      }
    }
  }
}

TEST_F(PastMonitorTest, DeepMatrixLowersAndEvaluatesIteratively) {
  // The lowering pass compiles with an explicit stack (repo rule: generated
  // constraints nest deep enough to overflow recursion), and the evaluator's
  // range walk is a flat loop. 50k-deep And/Or matrix, plus a 1k-deep Once
  // tower — each distinct Once level owns a table, so this also exercises
  // children-first recompute at scale.
  fotl::Formula sub = Parse_("Sub(x)");
  fotl::Formula fill = Parse_("Fill(x)");
  fotl::Formula f = sub;
  for (int i = 0; i < 50000; ++i) {
    f = (i % 2) ? fac_->And(fill, f) : fac_->Or(sub, f);
  }
  fotl::Formula tower = fill;
  for (int i = 0; i < 1000; ++i) tower = fac_->Once(tower);
  fotl::Formula phi = fac_->Forall(
      fac_->InternVar("x"),
      fac_->Always(fac_->Implies(tower, f)));
  auto m = PastMonitor::Create(fac_, phi);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Once^k(Fill) == Once(Fill); inserting both atoms keeps the matrix true.
  auto v0 = (*m)->ApplyTransaction(Txn({1}, {1}));
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->satisfied);
  // Retract Sub(1): Once Fill(1) stays true, the And/Or chain's top is an
  // Or(Sub(x), ...) so satisfaction now depends on the chain — it bottoms
  // out in Sub(x), still reachable through the Or spine via Fill conjuncts.
  auto v1 = (*m)->ApplyTransaction(Txn({}, {}, {1}, {}));
  ASSERT_TRUE(v1.ok());
}

TEST_F(PastMonitorTest, AuxiliaryStateIsHistoryIndependent) {
  auto m = *PastMonitor::Create(
      fac_, Parse_("forall x . G (Fill(x) -> O Sub(x))"));
  // Keep touching the same two elements for many states: the auxiliary state
  // must stay flat (history-less!), even as the history grows.
  size_t size_at_5 = 0;
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(m->ApplyTransaction(Txn({1}, {2}, {}, {})).ok());
    if (t == 5) size_at_5 = m->AuxiliaryStateSize();
  }
  EXPECT_EQ(m->AuxiliaryStateSize(), size_at_5);
  EXPECT_EQ(m->last_verdict().time, 49u);
  EXPECT_EQ(m->current_state().TotalTuples(), 2u);  // Sub(1), Fill(2)
}

TEST_F(PastMonitorTest, RestoredImageAndStateContinueInPlace) {
  // The evaluator reads only its current state, updated in place; a restore
  // moves a state in, Compact() only advances the time base, and the
  // restored evaluator then agrees with the original update for update.
  const std::string phi = "forall x . G (Fill(x) -> O Sub(x))";
  auto a = *PastMonitor::Create(fac_, Parse_(phi));
  EXPECT_EQ(a->current_state().TotalTuples(), 0u);
  ASSERT_TRUE(a->ApplyTransaction(Txn({1, 2}, {})).ok());
  ASSERT_TRUE(a->ApplyTransaction(Txn({}, {1}, {1})).ok());
  // Fill(7) and Fill(8) were never submitted: violated at t=2.
  ASSERT_FALSE(a->ApplyTransaction(Txn({}, {7, 8}))->satisfied);
  ASSERT_TRUE(a->Compact().ok());
  EXPECT_EQ(a->time_base(), 2u);
  EXPECT_FALSE(a->current_state().Holds(sub_, {1}));
  EXPECT_TRUE(a->current_state().Holds(fill_, {7}));

  auto b = *PastMonitor::Create(fac_, Parse_(phi));
  ASSERT_TRUE(b->RestoreImage(a->ExportImage(), a->current_state()).ok());
  EXPECT_EQ(b->time_base(), 2u);
  EXPECT_EQ(b->current_state(), a->current_state());
  for (const Transaction& txn :
       {Txn({3}, {2}, {}, {7, 8}), Txn({}, {3}), Transaction{}}) {
    auto va = a->ApplyTransaction(txn);
    auto vb = b->ApplyTransaction(txn);
    ASSERT_TRUE(va.ok() && vb.ok());
    EXPECT_EQ(va->time, vb->time);
    EXPECT_EQ(va->satisfied, vb->satisfied);
    EXPECT_EQ(va->first_violation, vb->first_violation);
    EXPECT_EQ(a->current_state(), b->current_state());
  }
  EXPECT_EQ(b->last_verdict().time, 5u);
  EXPECT_EQ(b->last_verdict().first_violation, std::optional<size_t>(2));

  // An image whose time base passes its last state is rejected.
  PastMonitor::StateImage bad = a->ExportImage();
  bad.time_base = bad.num_states;
  EXPECT_TRUE(b->RestoreImage(std::move(bad), a->current_state())
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace past
}  // namespace tic
