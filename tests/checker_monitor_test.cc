// Tests for the incremental monitor: equivalence with the batch checker on
// random update streams, permanence of violations, eager vs lazy modes,
// catch-up for newly relevant elements, and history-less monitoring (the
// progression backend compacted after every update).

#include <gtest/gtest.h>

#include <random>

#include "checker/checkpoint.h"
#include "checker/extension.h"
#include "checker/monitor.h"
#include "checker/trigger.h"
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
    // submit_once guarded by any Fill: instances over two elements share
    // Sub/Fill atoms and carry an X, so the automaton backend steps them on
    // progression.
    joint_ = *fotl::Parse(fac_.get(),
                          "forall x y . G ((Sub(x) & Fill(y)) -> X G !Sub(x))");
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
    EXPECT_EQ(m->time_base(), v->time);  // the word since the fold is empty
    return v;
  }

  VocabularyPtr vocab_;
  PredicateId sub_, fill_;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
  fotl::Formula fifo_ = nullptr;
  fotl::Formula joint_ = nullptr;
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

TEST_F(MonitorTest, CurrentStateAccessor) {
  auto m = *Monitor::Create(fac_, submit_once_);
  EXPECT_EQ(m->current_state().TotalTuples(), 0u);
  ASSERT_TRUE(m->ApplyTransaction(Txn({4}, {})).ok());
  EXPECT_TRUE(m->current_state().Holds(sub_, {4}));
  EXPECT_EQ(m->last_verdict().time, 0u);
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {4}, {4})).ok());
  EXPECT_FALSE(m->current_state().Holds(sub_, {4}));  // updated in place
  EXPECT_TRUE(m->current_state().Holds(fill_, {4}));
  EXPECT_EQ(m->last_verdict().time, 1u);
  EXPECT_EQ(m->time_base(), 0u);
}

// A transaction whose second op has the wrong arity is rejected before its
// first op lands, on every route: the monitor's snapshot bytes are identical
// across it, the rejected insert does not hold, and the next transaction
// gets the next instant. A trigger manager's history gains no state either.
TEST_F(MonitorTest, RejectedTransactionLeavesMonitorUnchanged) {
  const Transaction bad{UpdateOp::Insert(sub_, {2}),
                        UpdateOp::Insert(fill_, {3, 4})};
  CheckOptions progression;
  progression.backend = MonitorBackend::kProgression;
  const fotl::Formula fill_after_sub =
      *fotl::Parse(fac_.get(), "G (forall x . Fill(x) -> O Sub(x))");
  struct Route {
    fotl::Formula phi;
    CheckOptions options;
    MonitorBackend backend;
  };
  for (const Route& r :
       {Route{submit_once_, {}, MonitorBackend::kAutomaton},
        Route{submit_once_, progression, MonitorBackend::kProgression},
        Route{fill_after_sub, {}, MonitorBackend::kPastStateless}}) {
    auto m = *Monitor::Create(fac_, r.phi, {}, r.options);
    auto v0 = m->ApplyTransaction(Txn({1}, {}));
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    ASSERT_EQ(v0->backend, r.backend);
    const std::string before = *MonitorCheckpoint::Serialize(*m);
    auto rejected = m->ApplyTransaction(bad);
    EXPECT_TRUE(rejected.status().IsInvalidArgument())
        << rejected.status().ToString();
    // EXPECT_TRUE, not EXPECT_EQ: a failure should not print binary blobs.
    EXPECT_TRUE(*MonitorCheckpoint::Serialize(*m) == before)
        << "rejected transaction changed the monitor, backend "
        << static_cast<int>(r.backend);
    EXPECT_FALSE(m->current_state().Holds(sub_, {2}));
    auto v1 = m->ApplyTransaction(Txn({}, {1}, {1}));
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    EXPECT_EQ(v1->time, 1u);
    EXPECT_TRUE(v1->potentially_satisfied);
    EXPECT_FALSE(m->current_state().Holds(sub_, {2}));
  }

  auto tm = *TriggerManager::Create(fac_);
  ASSERT_TRUE(
      tm->AddTrigger("dup", *fotl::Parse(fac_.get(), "F (Sub(x) & X F Sub(x))"))
          .ok());
  ASSERT_TRUE(tm->OnTransaction(Txn({1}, {})).ok());
  EXPECT_TRUE(tm->OnTransaction(bad).status().IsInvalidArgument());
  ASSERT_EQ(tm->history().length(), 1u);
  EXPECT_FALSE(tm->history().state(0).Holds(sub_, {2}));
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
  // the progression backend: on the automaton backend submit_once's
  // instances are cohort slots, which never reach CheckSat (and thus the
  // verdict cache) at all.
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
  // A steady stream on the automaton backend through a component that steps
  // on progression (joint_'s instances share atoms outside the release
  // fragment): the running residuals recur, so after the first update the
  // conjunction's CheckSat answers from the shared verdict cache and the
  // tableau never runs again. Cohorts count table-cell reads instead
  // (covered by the cohort suites).
  auto m = *Monitor::Create(fac_, joint_);
  MonitorVerdict last;
  for (int step = 0; step < 6; ++step) {
    auto v = m->ApplyTransaction(Txn({}, {1, 2}));  // Fill(1), Fill(2) always
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->potentially_satisfied);
    EXPECT_EQ(v->backend, MonitorBackend::kAutomaton);
    EXPECT_GT(v->num_residual_classes, v->num_cohorts) << "step " << step;
    last = *v;
  }
  EXPECT_EQ(last.num_cohort_instances, 0u);  // all four pairs on progression
  EXPECT_EQ(last.automaton_stats.steps, 0u);  // no cohort stepped
  // Steady loop: the residuals stabilize after at most two updates, so at
  // least the last four decisions were verdict-cache hits with zero tableau
  // work.
  EXPECT_GE(last.verdict_cache_stats.hits, 4u);
  EXPECT_LE(last.verdict_cache_stats.misses, 2u);
  EXPECT_EQ(last.tableau_stats.num_expansions, 0u);  // final update: a hit
}

TEST_F(MonitorTest, CohortMergedOntoProgressionThenCompactedMatchesReferences) {
  // joint_ over element 1 alone is one letter-disjoint instance: a cohort
  // slot. Fill(2) makes element 2 relevant mid-stream, and its pairs join
  // element 1's instance into one atom-sharing component outside the
  // release fragment: the placed slot moves, and the rebuild puts the whole
  // component on progression, caught up from the checkpoint formulas. A
  // Compact() then rebuilds the placement from rebased instances. Every
  // verdict must equal the progression backend's, and the final one the
  // batch Theorem 4.2 check of the whole history.
  CheckOptions progression;
  progression.backend = MonitorBackend::kProgression;
  auto automaton = *Monitor::Create(fac_, joint_);
  auto reference = *Monitor::Create(fac_, joint_, {}, progression);
  History history = *History::Create(vocab_);
  const std::vector<Transaction> stream = {
      Txn({}, {1}),      // element 1: one cohort slot
      Txn({1}, {}),      // Sub(1) & Fill(1): G !Sub(1) from the next state
      Txn({}, {2}, {1}),  // element 2 merges the component
      Txn({}, {}),
      Txn({2}, {}),  // after Compact(): Sub(2) & Fill(y) arms G !Sub(2)
      Txn({}, {}, {2}),
      Txn({2}, {}),  // resubmission: violated
  };
  for (size_t t = 0; t < stream.size(); ++t) {
    if (t == 4) {
      ASSERT_TRUE(automaton->Compact().ok());
      ASSERT_TRUE(reference->Compact().ok());
    }
    auto va = automaton->ApplyTransaction(stream[t]);
    auto vr = reference->ApplyTransaction(stream[t]);
    ASSERT_TRUE(va.ok()) << va.status().ToString();
    ASSERT_TRUE(vr.ok()) << vr.status().ToString();
    ASSERT_TRUE(ApplyTransaction(&history, stream[t]).ok());
    EXPECT_EQ(va->potentially_satisfied, vr->potentially_satisfied) << "t=" << t;
    EXPECT_EQ(va->permanently_violated, vr->permanently_violated) << "t=" << t;
    EXPECT_EQ(va->permanently_violated, t + 1 == stream.size()) << "t=" << t;
    if (t == 1) {
      EXPECT_EQ(va->num_cohort_instances, 1u);
    }
    if (t == 2) {
      EXPECT_EQ(va->num_cohort_instances, 0u);
      EXPECT_GT(va->num_residual_classes, 0u);
    }
  }
  EXPECT_TRUE(automaton->last_verdict().permanently_violated);
  auto batch = CheckPotentialSatisfaction(*fac_, joint_, history);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch->potentially_satisfied);
}

TEST_F(MonitorTest, TableauStatsPerUpdateAndCumulative) {
  // CheckSat counters reset per call, so verdict.tableau_stats covers only
  // the latest update; cumulative_tableau_stats must be the running sum of
  // the per-update stats, and must freeze (not reset) once the monitor dies.
  // Progression placement only (joint_ shares atoms outside the release
  // fragment): cohort liveness is precompiled per state (lazy safety
  // expansion), so the cohort path never reaches the monitor's CheckSat.
  auto m = *Monitor::Create(fac_, joint_);
  ptl::TableauStats sum;
  for (int step = 0; step < 4; ++step) {
    auto v = m->ApplyTransaction(Txn({}, {1, 2}));  // never violating
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

  // Kill the monitor: resubmission of 1 after an unsubmit, Fill(1) holding.
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
