// Tests for the incremental monitor: equivalence with the batch checker on
// random update streams, permanence of violations, eager vs lazy modes,
// catch-up for newly relevant elements, and history-less monitoring (the
// progression backend compacted after every update).

#include <gtest/gtest.h>

#include <random>

#include "checker/extension.h"
#include "checker/monitor.h"
#include "fotl/parser.h"

namespace tic {
namespace checker {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
    submit_once_ = *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
    fifo_ = *fotl::Parse(
        fac_.get(),
        "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
        "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))");
  }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills,
                  std::vector<Value> unsubs = {}, std::vector<Value> unfills = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    for (Value v : unsubs) t.push_back(UpdateOp::Delete(sub_, {v}));
    for (Value v : unfills) t.push_back(UpdateOp::Delete(fill_, {v}));
    return t;
  }

  // History-less monitoring (Section 6's open question): the progression
  // backend with Compact() after every update, so fresh elements are caught
  // up from z-patterns and the monitor holds only the current state.
  std::unique_ptr<Monitor> HistoryLess(fotl::Formula phi,
                                       CheckOptions options = {}) {
    options.backend = MonitorBackend::kProgression;
    return *Monitor::Create(fac_, phi, {}, options);
  }
  Result<MonitorVerdict> ApplyHistoryLess(Monitor* m, const Transaction& txn) {
    Result<MonitorVerdict> v = m->ApplyTransaction(txn);
    if (!v.ok()) return v;
    TIC_RETURN_NOT_OK(m->Compact());
    EXPECT_EQ(m->history().length(), 1u);
    return v;
  }

  VocabularyPtr vocab_;
  PredicateId sub_, fill_;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
  fotl::Formula fifo_ = nullptr;
};

TEST_F(MonitorTest, CreateValidatesTheFragment) {
  auto bad1 = Monitor::Create(fac_, *fotl::Parse(fac_.get(), "exists x . G Sub(x)"));
  EXPECT_TRUE(bad1.status().IsNotSupported());
  auto bad2 = Monitor::Create(fac_, *fotl::Parse(fac_.get(), "Sub(x)"));
  EXPECT_TRUE(bad2.status().IsInvalidArgument());
  auto bad3 =
      Monitor::Create(fac_, *fotl::Parse(fac_.get(), "forall x . F Sub(x)"));
  EXPECT_TRUE(bad3.status().IsNotSupported());  // safety gate on the skeleton
  auto ok = Monitor::Create(fac_, submit_once_);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(MonitorTest, DetectsViolationAtEarliestTime) {
  auto m = *Monitor::Create(fac_, submit_once_);
  auto v0 = m->ApplyTransaction(Txn({7}, {}));
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->potentially_satisfied);
  // Deleting and re-inserting the same order in one later state violates.
  auto v1 = m->ApplyTransaction(Txn({}, {}, {7}));
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->potentially_satisfied);
  auto v2 = m->ApplyTransaction(Txn({7}, {}));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->potentially_satisfied);
  EXPECT_TRUE(v2->permanently_violated);
  // Dead stays dead.
  auto v3 = m->ApplyTransaction(Txn({}, {}, {7}));
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE(v3->permanently_violated);
}

TEST_F(MonitorTest, SameStateRepetitionIsNotResubmission) {
  // Sub(7) persisting across states is a single submission interval under the
  // paper's semantics? No — Sub(7) true at t=0 and t=1 violates
  // "Sub(x) -> X G !Sub(x)" at t=0. The monitor must flag it.
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {})).ok());
  auto v = m->ApplyTransaction({});  // copy of last state: Sub(7) still true
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->potentially_satisfied);
}

TEST_F(MonitorTest, InstanceCatchUpForFreshElements) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({1}, {}, {})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {}, {1})).ok());
  // Element 2 appears at t=2; its instance must be progressed through the
  // whole history (where Sub(2) was false).
  auto v = m->ApplyTransaction(Txn({2}, {}));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->potentially_satisfied);
  EXPECT_EQ(v->num_instances, 3u);  // {1, 2, z1}
  // Resubmitting 2 later is caught by the caught-up instance.
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {}, {2})).ok());
  auto v2 = m->ApplyTransaction(Txn({2}, {}));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->potentially_satisfied);
}

TEST_F(MonitorTest, LazyModeDetectsLateButSurely) {
  // For submit-once, progression alone already collapses to false on the
  // violating state (the constraint is "present-detectable"), so lazy mode
  // detects at the same instant here; the difference is it never runs the
  // exponential check.
  auto eager = *Monitor::Create(fac_, submit_once_, {}, {}, MonitorMode::kEager);
  auto lazy = *Monitor::Create(fac_, submit_once_, {}, {}, MonitorMode::kLazy);
  std::vector<Transaction> txns = {Txn({7}, {}), Txn({}, {}, {7}), Txn({7}, {})};
  for (const auto& t : txns) {
    auto ve = eager->ApplyTransaction(t);
    auto vl = lazy->ApplyTransaction(t);
    ASSERT_TRUE(ve.ok());
    ASSERT_TRUE(vl.ok());
    EXPECT_EQ(ve->permanently_violated, vl->permanently_violated);
    EXPECT_EQ(vl->tableau_stats.num_states, 0u);  // lazy never builds a tableau
  }
}

TEST_F(MonitorTest, AgreesWithBatchCheckerOnRandomStreams) {
  for (int seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    auto m = *Monitor::Create(fac_, fifo_);
    History reference = *History::Create(vocab_);
    bool batch_dead = false;
    for (int step = 0; step < 6; ++step) {
      std::vector<Value> subs, fills;
      if (rng() % 2) subs.push_back(1 + rng() % 3);
      if (rng() % 2) fills.push_back(1 + rng() % 3);
      Transaction txn = Txn(subs, fills);
      auto verdict = m->ApplyTransaction(txn);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      ASSERT_TRUE(ApplyTransaction(&reference, txn).ok());
      auto batch = CheckPotentialSatisfaction(*fac_, fifo_, reference);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      batch_dead = !batch->potentially_satisfied;
      EXPECT_EQ(verdict->potentially_satisfied, batch->potentially_satisfied)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(verdict->permanently_violated, batch_dead);
    }
  }
}

TEST_F(MonitorTest, HistoryAccessor) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({4}, {})).ok());
  EXPECT_EQ(m->history().length(), 1u);
  EXPECT_TRUE(m->history().state(0).Holds(sub_, {4}));
  EXPECT_EQ(m->last_verdict().time, 0u);
}

TEST_F(MonitorTest, HistoryLessModeMatchesEagerOnRandomStreams) {
  // The history-less monitor (Section 6's open question, answered by
  // z-pattern catch-up after every fold) must produce verdicts identical to
  // the replaying eager monitor — including across fresh-element arrivals
  // and deletions.
  for (fotl::Formula phi : {submit_once_, fifo_}) {
    for (int seed = 0; seed < 10; ++seed) {
      std::mt19937 rng(31337 + seed);
      auto eager =
          *Monitor::Create(fac_, phi, {}, {}, MonitorMode::kEager);
      auto hless = HistoryLess(phi);
      for (int step = 0; step < 7; ++step) {
        std::vector<Value> subs, fills, unsubs;
        if (rng() % 2) subs.push_back(1 + rng() % 4);
        if (rng() % 2) fills.push_back(1 + rng() % 4);
        if (rng() % 3 == 0) unsubs.push_back(1 + rng() % 4);
        Transaction txn = Txn(subs, fills, unsubs);
        auto ve = eager->ApplyTransaction(txn);
        auto vh = ApplyHistoryLess(hless.get(), txn);
        ASSERT_TRUE(ve.ok()) << ve.status().ToString();
        ASSERT_TRUE(vh.ok()) << vh.status().ToString();
        EXPECT_EQ(ve->time, vh->time);
        EXPECT_EQ(ve->potentially_satisfied, vh->potentially_satisfied)
            << "seed " << seed << " step " << step;
        EXPECT_EQ(ve->permanently_violated, vh->permanently_violated);
      }
    }
  }
}

TEST_F(MonitorTest, HistoryLessFreshElementCatchUp) {
  // Element 9 appears late; its instance must behave as if progressed through
  // the whole history — but the history is folded away, so it is derived
  // purely by renaming a z-pattern residual.
  auto m = HistoryLess(submit_once_);
  ASSERT_TRUE(ApplyHistoryLess(m.get(), Txn({1}, {})).ok());
  ASSERT_TRUE(ApplyHistoryLess(m.get(), Txn({}, {}, {1})).ok());
  auto v = ApplyHistoryLess(m.get(), Txn({9}, {}));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->potentially_satisfied);
  // Resubmitting 9 later is caught by the renamed instance.
  ASSERT_TRUE(ApplyHistoryLess(m.get(), Txn({}, {}, {9})).ok());
  auto v2 = ApplyHistoryLess(m.get(), Txn({9}, {}));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(v2->potentially_satisfied);
  EXPECT_TRUE(v2->permanently_violated);
}

TEST_F(MonitorTest, AllModesAgreeOnNewElementCatchUpViolation) {
  // A fresh element (2) arrives mid-stream, gets caught up through the
  // history, and later violates submit-once. All three monitors must agree on
  // permanence at every step; lazy agrees here because the violation is
  // present-detectable (progression alone collapses to false).
  auto eager = *Monitor::Create(fac_, submit_once_, {}, {}, MonitorMode::kEager);
  auto lazy = *Monitor::Create(fac_, submit_once_, {}, {}, MonitorMode::kLazy);
  auto hless = HistoryLess(submit_once_);
  std::vector<Transaction> txns = {
      Txn({1}, {}),         Txn({}, {}, {1}), Txn({2}, {}),
      Txn({}, {}, {2}),     Txn({2}, {}),  // resubmission: permanent violation
  };
  for (size_t step = 0; step < txns.size(); ++step) {
    auto ve = eager->ApplyTransaction(txns[step]);
    auto vl = lazy->ApplyTransaction(txns[step]);
    auto vh = ApplyHistoryLess(hless.get(), txns[step]);
    ASSERT_TRUE(ve.ok()) << ve.status().ToString();
    ASSERT_TRUE(vl.ok()) << vl.status().ToString();
    ASSERT_TRUE(vh.ok()) << vh.status().ToString();
    EXPECT_EQ(ve->permanently_violated, step == 4) << "step " << step;
    EXPECT_EQ(vl->permanently_violated, ve->permanently_violated) << "step " << step;
    EXPECT_EQ(vh->permanently_violated, ve->permanently_violated) << "step " << step;
    EXPECT_EQ(vh->potentially_satisfied, ve->potentially_satisfied) << "step " << step;
  }
}

TEST_F(MonitorTest, ParallelVerdictsMatchSequentialBitForBit) {
  // Progression is pure and the factory canonicalizes by content fingerprint,
  // so running residual classes on a pool must leave every verdict field —
  // including residual size and class counts — identical to sequential runs.
  // Checked on the default monitor and on history-less monitoring.
  CheckOptions par;
  par.threads = 4;
  for (fotl::Formula phi : {submit_once_, fifo_}) {
    for (bool history_less : {false, true}) {
      for (int seed = 0; seed < 6; ++seed) {
        std::mt19937 rng(7000 + seed);
        auto seq = history_less ? HistoryLess(phi)
                                : *Monitor::Create(fac_, phi, {}, {});
        auto parallel = history_less ? HistoryLess(phi, par)
                                     : *Monitor::Create(fac_, phi, {}, par);
        auto apply = [&](Monitor* m, const Transaction& txn) {
          return history_less ? ApplyHistoryLess(m, txn)
                              : m->ApplyTransaction(txn);
        };
        for (int step = 0; step < 7; ++step) {
          std::vector<Value> subs, fills, unsubs;
          if (rng() % 2) subs.push_back(1 + rng() % 4);
          if (rng() % 2) fills.push_back(1 + rng() % 4);
          if (rng() % 3 == 0) unsubs.push_back(1 + rng() % 4);
          Transaction txn = Txn(subs, fills, unsubs);
          auto vs = apply(seq.get(), txn);
          auto vp = apply(parallel.get(), txn);
          ASSERT_TRUE(vs.ok()) << vs.status().ToString();
          ASSERT_TRUE(vp.ok()) << vp.status().ToString();
          EXPECT_EQ(vp->potentially_satisfied, vs->potentially_satisfied)
              << "seed " << seed << " step " << step;
          EXPECT_EQ(vp->permanently_violated, vs->permanently_violated);
          EXPECT_EQ(vp->residual_size, vs->residual_size)
              << "seed " << seed << " step " << step;
          EXPECT_EQ(vp->num_instances, vs->num_instances);
          EXPECT_EQ(vp->num_residual_classes, vs->num_residual_classes);
        }
      }
    }
  }
}

TEST_F(MonitorTest, VerdictCacheAccumulatesHitsOnSteadyStates) {
  // A steady stream keeps producing residual conjunctions the monitor has
  // already decided; the shared verdict cache must start hitting. Pinned to
  // the progression backend: the automaton backend memoizes transitions, so
  // steady states never reach CheckSat (and thus the verdict cache) at all.
  CheckOptions options;
  options.backend = MonitorBackend::kProgression;
  auto m = *Monitor::Create(fac_, submit_once_, {}, options);
  MonitorVerdict last;
  for (int step = 0; step < 6; ++step) {
    auto v = m->ApplyTransaction(Txn({}, {1}));  // Fill(1) every state
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->potentially_satisfied);
    last = *v;
  }
  EXPECT_GT(last.verdict_cache_stats.hits + last.verdict_cache_stats.misses, 0u);
  EXPECT_GT(last.verdict_cache_stats.hits, 0u);
}

TEST_F(MonitorTest, AutomatonBackendMemoizesSteadyStates) {
  // Same steady stream on the automaton backend: after the first occurrence
  // of a (residual, letter) pair, updates are pure transition-memo hits and
  // the tableau never runs again — live_queries stays at the number of
  // distinct residuals reached. Pinned to the joint residual-graph path: the
  // default cohort lockstep path counts table-cell reads instead of joint
  // steps (covered by the cohort-specific tests below).
  CheckOptions options;
  options.cohort_stepping = false;
  auto m = *Monitor::Create(fac_, submit_once_, {}, options);
  MonitorVerdict last;
  for (int step = 0; step < 6; ++step) {
    auto v = m->ApplyTransaction(Txn({}, {1}));  // Fill(1) every state
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->potentially_satisfied);
    EXPECT_EQ(v->backend, MonitorBackend::kAutomaton);
    last = *v;
  }
  EXPECT_EQ(last.automaton_stats.steps, 6u);
  EXPECT_GT(last.automaton_stats.memo_hits, 0u);
  // Steady loop: the residual graph stabilizes after at most two states, so
  // at least the last four updates were memo hits with zero tableau work.
  EXPECT_GE(last.automaton_stats.memo_hits, 4u);
  EXPECT_EQ(last.automaton_stats.live_queries, last.automaton_stats.num_states);
  EXPECT_EQ(last.tableau_stats.num_expansions, 0u);  // final update: pure lookup
}

TEST_F(MonitorTest, TableauStatsPerUpdateAndCumulative) {
  // CheckSat counters reset per call, so verdict.tableau_stats covers only
  // the latest update; cumulative_tableau_stats must be the running sum of
  // the per-update stats, and must freeze (not reset) once the monitor dies.
  // Joint path only: cohort liveness is precompiled per state (lazy safety
  // expansion), so the cohort path never reaches the monitor's CheckSat.
  CheckOptions options;
  options.cohort_stepping = false;
  auto m = *Monitor::Create(fac_, submit_once_, {}, options);
  ptl::TableauStats sum;
  for (int step = 0; step < 4; ++step) {
    auto v = m->ApplyTransaction(Txn({}, {1}));  // Fill(1), never violating
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    sum += v->tableau_stats;
    EXPECT_EQ(v->cumulative_tableau_stats.num_states, sum.num_states);
    EXPECT_EQ(v->cumulative_tableau_stats.num_edges, sum.num_edges);
    EXPECT_EQ(v->cumulative_tableau_stats.num_expansions, sum.num_expansions);
    EXPECT_EQ(v->cumulative_tableau_stats.cache_hits, sum.cache_hits);
    EXPECT_EQ(v->cumulative_tableau_stats.cache_misses, sum.cache_misses);
  }
  EXPECT_GT(sum.num_expansions, 0u);
  ASSERT_GE(sum.num_expansions, m->last_verdict().tableau_stats.num_expansions);

  // Kill the monitor: resubmission of 1 after an unsubmit.
  ASSERT_TRUE(m->ApplyTransaction(Txn({1}, {})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {}, {1})).ok());
  auto dead = m->ApplyTransaction(Txn({1}, {}));
  ASSERT_TRUE(dead.ok());
  ASSERT_TRUE(dead->permanently_violated);
  size_t total = dead->cumulative_tableau_stats.num_expansions;
  EXPECT_GT(total, sum.num_expansions);
  // Dead path: no check runs, per-update stats are zero, totals are kept.
  auto after = m->ApplyTransaction(Txn({}, {2}));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tableau_stats.num_expansions, 0u);
  EXPECT_EQ(after->cumulative_tableau_stats.num_expansions, total);
}

TEST_F(MonitorTest, HistoryLessEarliestDetectionPreserved) {
  // Same earliest-time semantics as kEager on the contradictory-obligation
  // constraint from the integration tests.
  auto phi = *fotl::Parse(fac_.get(),
                          "forall x . G (Sub(x) -> (X Fill(x)) & (X !Fill(x)))");
  auto m = HistoryLess(phi);
  auto v = ApplyHistoryLess(m.get(), Txn({1}, {}));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->potentially_satisfied);  // earliest possible detection
}

}  // namespace
}  // namespace checker
}  // namespace tic
