// Zero-allocation gate for the steady-state monitoring hot path.
//
// The flat-container layer (src/common/flat/) exists so that a warmed-up
// Monitor::ApplyTransaction on the automaton backend's memo-hit path touches
// the heap exactly zero times: an empty transaction applies no op to the
// monitor's one in-place database state,
// the propositional state stays inline in PropState's small-vector, letter
// lookup probes a warm flat map, and the (state, signature) transition is a
// flat-map hit. This suite interposes the global operator new/delete family
// (src/testing/alloc_count.cc, compiled into this target with
// TIC_COUNT_ALLOCS) and asserts that bound — a regression here means some
// hot-path structure started allocating again.

#include <gtest/gtest.h>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "common/flat/flat_map.h"
#include "common/flat/flat_set.h"
#include "common/telemetry/recorder.h"
#include "fotl/parser.h"
#include "ptl/word.h"
#include "testing/alloc_count.h"

namespace tic {
namespace checker {
namespace {

class AllocCountTest : public ::testing::Test {
 protected:
  AllocCountTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
    submit_once_ =
        *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
  }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    return t;
  }

  VocabularyPtr vocab_;
  PredicateId sub_ = 0, fill_ = 0;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
};

TEST_F(AllocCountTest, HarnessIsCompiledIn) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  testing::ResetAllocCounts();
  testing::AllocWindow w;
  // Direct allocator-function calls: a `delete new int` expression may be
  // elided entirely by the optimizer, but these cannot.
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_EQ(w.allocations(), 1u);
  EXPECT_EQ(w.deallocations(), 1u);
}

// The headline guarantee: after warm-up, an empty-transaction update on the
// automaton backend — no database op, letter probes, signature hit,
// transition-memo hit, cached liveness — performs ZERO heap allocations.
TEST_F(AllocCountTest, SteadyStateMonitorStepAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_EQ(m->options().backend, MonitorBackend::kAutomaton);

  // Populate: one element becomes relevant, then the database stays put.
  // Sub(7) must be retracted before the steady phase: Sub persisting across
  // states violates "Sub(x) -> X G !Sub(x)", and a dead monitor would skip
  // the very hot path this test is about.
  ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {11})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  // Warm-up: amortized growth (the word vector doubles past the measure
  // window), memo and signature tables fill, letter probe capacity settles.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }

  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (int i = 0; i < 20; ++i) {
    auto v = m->ApplyTransaction(Transaction{});
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
    ASSERT_EQ(v->backend, MonitorBackend::kAutomaton);
  }
  EXPECT_EQ(window.allocations(), 0u)
      << "steady-state memo-hit updates must not touch the heap";
  EXPECT_EQ(window.deallocations(), 0u);
}

// The same zero-allocation bound for a WIDE warmed cohort: 32 letter-disjoint
// instances stepping through one cohort's SoA gather loop, with slots parked
// in genuinely different automaton states (element 7 saw Sub, the rest did
// not), so the measured updates run the dense-table gather — not the
// single-cell uniform shortcut — and must still never touch the heap: touch
// marking probes a warm flat map, states[] and the gather scratch are
// pre-sized, the minimize trigger reads a counter without taking the
// TransitionSystem lock.
TEST_F(AllocCountTest, SteadyStateCohortGatherAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_EQ(m->options().backend, MonitorBackend::kAutomaton);

  std::vector<Value> universe;
  for (Value v = 1; v <= 32; ++v) universe.push_back(v);
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, universe)).ok());  // 32 instances
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }
  ASSERT_EQ(m->last_verdict().num_cohort_instances, 32u);
  ASSERT_EQ(m->last_verdict().num_cohorts, 1u);

  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (int i = 0; i < 20; ++i) {
    auto v = m->ApplyTransaction(Transaction{});
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
  }
  EXPECT_EQ(window.allocations(), 0u)
      << "warmed cohort gather updates must not touch the heap";
  EXPECT_EQ(window.deallocations(), 0u);
}

// Compact() keeps every engine's state, so the update right after a fold is
// as warm as the one before it: the same 32-slot cohort, folded after
// warm-up, must step its first 20 post-fold updates — the first one
// included — without touching the heap. (A fold that dropped the placements
// would rebuild the cohort on that first update.)
TEST_F(AllocCountTest, FirstUpdateAfterCompactAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_EQ(m->options().backend, MonitorBackend::kAutomaton);

  std::vector<Value> universe;
  for (Value v = 1; v <= 32; ++v) universe.push_back(v);
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, universe)).ok());  // 32 instances
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }
  ASSERT_EQ(m->last_verdict().num_cohort_instances, 32u);
  ASSERT_TRUE(m->Compact().ok());

  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (int i = 0; i < 20; ++i) {
    auto v = m->ApplyTransaction(Transaction{});
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
    ASSERT_EQ(v->num_cohort_instances, 32u);
  }
  EXPECT_EQ(window.allocations(), 0u)
      << "the first updates after Compact() must not touch the heap";
  EXPECT_EQ(window.deallocations(), 0u);
}

// The flight recorder rides the hot path (TIC_RECORD in ApplyTransaction and
// the letter-flip loop), so the zero-allocation bound must hold WITH the
// recorder demonstrably recording: rings are pre-created by Monitor::Create
// (telemetry::EnsureThreadRing) and a slot write is seven atomic stores into
// a fixed ring — no heap. A recurring non-empty delta keeps events flowing
// through the measured window.
TEST_F(AllocCountTest, SteadyStateStepWithRecorderEnabledAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
#ifdef TIC_TELEMETRY_ENABLED
  telemetry::SetRecorderEnabled(true);
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_EQ(m->options().backend, MonitorBackend::kAutomaton);

  Transaction fill = Txn({}, {11});
  Transaction unfill;
  unfill.push_back(UpdateOp::Delete(fill_, {11}));
  ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(fill).ok());
    ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }

  const uint64_t events_before = telemetry::SnapshotRecorder().size() +
                                 telemetry::RecorderDropped();
  testing::ResetAllocCounts();
  {
    testing::AllocWindow window;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
    }
    // The memo-hit empty update records kTxnApplied and stays heap-free.
    EXPECT_EQ(window.allocations(), 0u)
        << "recorder-on steady-state updates must not touch the heap";
    EXPECT_EQ(window.deallocations(), 0u);
  }
  {
    // Warmed recurring delta WITH letter flips: the db-side insert
    // allocates (as RecurringDeltaStaysFlat documents), but turning the
    // recorder off must not change the monitor-side count — i.e. recording
    // the kLetterFlip events is itself allocation-free.
    testing::AllocWindow with_recorder;
    ASSERT_TRUE(m->ApplyTransaction(fill).ok());
    ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
    uint64_t on_cost = with_recorder.allocations();
    telemetry::SetRecorderEnabled(false);
    testing::AllocWindow without_recorder;
    ASSERT_TRUE(m->ApplyTransaction(fill).ok());
    ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
    telemetry::SetRecorderEnabled(true);
    EXPECT_EQ(on_cost, without_recorder.allocations())
        << "recording letter flips must cost zero allocations";
  }
  const uint64_t events_after = telemetry::SnapshotRecorder().size() +
                                telemetry::RecorderDropped();
  EXPECT_GT(events_after, events_before)
      << "the gate is vacuous unless events were actually recorded";
  ASSERT_TRUE(m->last_verdict().potentially_satisfied);
#else
  GTEST_SKIP() << "recorder compiled out (TIC_TELEMETRY=OFF)";
#endif
}

// The zero-allocation bound for release cohorts (atom-sharing components of
// release-fragment instances, one cohort slot each): a fifo monitor over 4
// recycled orders puts its 12 order pairs on slots of one cohort, and each
// order's Sub/Fill letters are watched by the 6 slots of the pairs that
// mention it, so every measured update routes flips through multi-slot watch
// lists and re-steps about 10 hot slots. The monitor applies each transaction
// to its one database state in place; a shadow DatabaseState fed the same
// transactions measures what the ops themselves allocate (the inserted
// tuples), and the monitor must add nothing to it.
TEST_F(AllocCountTest, SteadyStateReleaseCohortFlipsAllocateNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto fifo = *fotl::Parse(
      fac_.get(),
      "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
      "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))");
  auto m = *Monitor::Create(fac_, fifo);
  DatabaseState shadow(vocab_);

  // Order t % 4 + 1 is submitted at t and filled at t + 1 (the
  // BM_Fifo_MonitorPerUpdate stream): first come, first served.
  const Value n = 4;
  auto txn = [&](size_t t) {
    Transaction out;
    out.push_back(UpdateOp::Insert(sub_, {static_cast<Value>(t % n) + 1}));
    if (t > 0) {
      Value prev = static_cast<Value>((t - 1) % n) + 1;
      out.push_back(UpdateOp::Insert(fill_, {prev}));
      out.push_back(UpdateOp::Delete(sub_, {prev}));
    }
    if (t > 1) {
      out.push_back(
          UpdateOp::Delete(fill_, {static_cast<Value>((t - 2) % n) + 1}));
    }
    return out;
  };
  // Warm-up: 150 updates leave the word between two capacity doublings for
  // the whole measured window.
  size_t t = 0;
  for (; t < 150; ++t) {
    Transaction x = txn(t);
    ASSERT_TRUE(tic::ApplyTransaction(&shadow, x).ok());
    auto v = m->ApplyTransaction(x);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_TRUE(v->potentially_satisfied) << "t=" << t;
  }
  ASSERT_EQ(m->last_verdict().num_cohort_instances, 12u)
      << "the fifo pairs must sit on release cohort slots";
  std::vector<Transaction> window_txns;
  for (size_t i = 0; i < 20; ++i) window_txns.push_back(txn(t + i));

  testing::ResetAllocCounts();
  uint64_t db_allocs = 0;
  uint64_t monitor_allocs = 0;
  for (const Transaction& x : window_txns) {
    {
      testing::AllocWindow window;
      ASSERT_TRUE(tic::ApplyTransaction(&shadow, x).ok());
      db_allocs += window.allocations();
    }
    testing::AllocWindow window;
    auto v = m->ApplyTransaction(x);
    monitor_allocs += window.allocations();
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
  }
  EXPECT_GT(db_allocs, 0u);  // the shadow really measures the inserts
  EXPECT_EQ(monitor_allocs, db_allocs)
      << "warmed release-cohort updates must allocate nothing beyond the "
         "transaction's own database ops";
}

// A non-empty update costs what its ops cost, not what the database holds:
// the monitor applies each transaction to its one state in place, where a
// per-transaction copy of the state would allocate per stored tuple. The
// same recurring 3-op transactions on a warmed session monitor must
// allocate exactly as much over 1 000 entities as over 100.
TEST_F(AllocCountTest, NonEmptyUpdateAllocationsIndependentOfDatabaseSize) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  // The bench_e2e session constraint, with Sub as Open and Fill as Closed.
  auto session = *fotl::Parse(fac_.get(),
                              "forall x . G (Sub(x) -> X (Sub(x) | Fill(x)))");
  // Close session 1 and open session 3 (which stays closed too), then undo.
  const Transaction a{UpdateOp::Delete(sub_, {1}), UpdateOp::Insert(fill_, {1}),
                      UpdateOp::Insert(sub_, {3})};
  const Transaction b{UpdateOp::Delete(fill_, {1}), UpdateOp::Insert(sub_, {1}),
                      UpdateOp::Delete(sub_, {3})};
  auto measure = [&](Value entities) -> uint64_t {
    auto m = *Monitor::Create(fac_, session);
    Transaction preload = Txn({1});  // session 1 open, the rest closed
    for (Value e = 2; e <= entities; ++e) {
      preload.push_back(UpdateOp::Insert(fill_, {e}));
    }
    EXPECT_TRUE(m->ApplyTransaction(preload).ok());
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(m->ApplyTransaction(a).ok());
      EXPECT_TRUE(m->ApplyTransaction(b).ok());
    }
    EXPECT_EQ(m->current_state().TotalTuples(), static_cast<size_t>(entities));
    testing::ResetAllocCounts();
    testing::AllocWindow window;
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(m->ApplyTransaction(a).ok());
      EXPECT_TRUE(m->ApplyTransaction(b).ok());
    }
    const uint64_t allocs = window.allocations();
    EXPECT_TRUE(m->last_verdict().potentially_satisfied);
    return allocs;
  };
  const uint64_t small_db = measure(100);
  const uint64_t large_db = measure(1000);
  EXPECT_GT(small_db, 0u);  // the inserted tuples themselves
  EXPECT_EQ(large_db, small_db)
      << "a non-empty update must not allocate per stored tuple";
}

// Cohort growth is O(delta), not O(population): appending one fresh element
// to a warmed 32-instance cohort late in the run must cost no more
// allocations than the same append early — no table rebuilds, no placement
// recomputation over existing instances, no states[] reshuffle beyond the
// one appended slot.
TEST_F(AllocCountTest, CohortGrowthIsDeltaBounded) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  std::vector<Value> universe;
  for (Value v = 1; v <= 32; ++v) universe.push_back(v);
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, universe)).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }

  testing::ResetAllocCounts();
  testing::AllocWindow early;
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {100})).ok());
  uint64_t early_cost = early.allocations();
  // More steady updates, then a second single-element append much later.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }
  testing::AllocWindow late;
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {101})).ok());
  ASSERT_TRUE(m->last_verdict().potentially_satisfied);
  ASSERT_EQ(m->last_verdict().num_cohort_instances, 34u);
  // Same delta, longer history and bigger population: must not cost more.
  EXPECT_LE(late.allocations(), early_cost);
}

// Same bound for a *recurring delta* (insert+delete cycle the memo has seen
// before): the transaction's inserts allocate in the db layer, but
// the monitor side — signature, transition, verdict — must still hit warm
// structures; assert the per-update allocation count stays flat and small
// instead of growing with history length.
TEST_F(AllocCountTest, RecurringDeltaStaysFlat) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  Transaction fill = Txn({}, {11});
  Transaction unfill;
  unfill.push_back(UpdateOp::Delete(fill_, {11}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(fill).ok());
    ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
  }
  testing::ResetAllocCounts();
  testing::AllocWindow early;
  ASSERT_TRUE(m->ApplyTransaction(fill).ok());
  ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
  uint64_t per_cycle = early.allocations();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(fill).ok());
    ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
  }
  testing::AllocWindow late;
  ASSERT_TRUE(m->ApplyTransaction(fill).ok());
  ASSERT_TRUE(m->ApplyTransaction(unfill).ok());
  ASSERT_TRUE(m->last_verdict().potentially_satisfied);  // not a dead monitor
  // The same delta later in the history must not cost more: no O(t) copies,
  // no cache rebuilds.
  EXPECT_LE(late.allocations(), per_cycle);
}

// The same zero-allocation bound for the point-algebra engine: 16
// letter-disjoint instances of a trigger-shaped fragment sentence, all routed
// to the watched-literal PointBackend (no automaton at all). A warmed empty
// update touches nothing; a warmed recurring antecedent flip walks OnFlip +
// StepDirty through pre-sized flat tables and must cost no more late than
// early.
TEST_F(AllocCountTest, SteadyStatePointAlgebraStepAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto trigger =
      *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> G Fill(x))");
  auto m = *Monitor::Create(fac_, trigger);

  // Populate: Fill holds for the whole universe (so armed triggers survive),
  // then arm element 7's trigger.
  std::vector<Value> universe;
  for (Value v = 1; v <= 16; ++v) universe.push_back(v);
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, universe)).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }
  ASSERT_TRUE(m->last_verdict().potentially_satisfied);
  ASSERT_GT(m->last_verdict().num_pointalg_instances, 0u)
      << "the gate is vacuous unless instances actually routed";

  testing::ResetAllocCounts();
  {
    testing::AllocWindow window;
    for (int i = 0; i < 20; ++i) {
      auto v = m->ApplyTransaction(Transaction{});
      ASSERT_TRUE(v.ok());
      ASSERT_TRUE(v->potentially_satisfied);
    }
    EXPECT_EQ(window.allocations(), 0u)
        << "warmed point-algebra updates must not touch the heap";
    EXPECT_EQ(window.deallocations(), 0u);
  }
  {
    // Recurring antecedent flips (Sub(3) on/off): the db-side insert
    // allocates, the PA side must stay flat — same delta later must not
    // cost more.
    Transaction arm = Txn({3});
    Transaction disarm;
    disarm.push_back(UpdateOp::Delete(sub_, {3}));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(m->ApplyTransaction(arm).ok());
      ASSERT_TRUE(m->ApplyTransaction(disarm).ok());
    }
    testing::AllocWindow early;
    ASSERT_TRUE(m->ApplyTransaction(arm).ok());
    ASSERT_TRUE(m->ApplyTransaction(disarm).ok());
    uint64_t per_cycle = early.allocations();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(m->ApplyTransaction(arm).ok());
      ASSERT_TRUE(m->ApplyTransaction(disarm).ok());
    }
    testing::AllocWindow late;
    ASSERT_TRUE(m->ApplyTransaction(arm).ok());
    ASSERT_TRUE(m->ApplyTransaction(disarm).ok());
    ASSERT_TRUE(m->last_verdict().potentially_satisfied);
    EXPECT_LE(late.allocations(), per_cycle);
  }
}

// And for the past-evaluator route (Proposition 2.1): a warmed history-less
// evaluator recomputes its auxiliary tables per update entirely inside
// pre-sized flat tables and scratch vectors — empty updates on a settled
// domain must be heap-free.
TEST_F(AllocCountTest, SteadyStatePastEvaluatorStepAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto past = *fotl::Parse(fac_.get(), "forall x . G (Fill(x) -> O Sub(x))");
  auto m = *Monitor::Create(fac_, past);

  ASSERT_TRUE(m->ApplyTransaction(Txn({1, 2, 3})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {1, 2})).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }
  ASSERT_EQ(m->last_verdict().backend, MonitorBackend::kPastStateless);
  ASSERT_TRUE(m->last_verdict().potentially_satisfied);

  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (int i = 0; i < 20; ++i) {
    auto v = m->ApplyTransaction(Transaction{});
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
    ASSERT_EQ(v->backend, MonitorBackend::kPastStateless);
  }
  EXPECT_EQ(window.allocations(), 0u)
      << "warmed past-evaluator updates must not touch the heap";
  EXPECT_EQ(window.deallocations(), 0u);
}

// A monitor restored from a TICSNAP01 snapshot reaches the same steady-state
// zero-allocation regime as the original: restore rebuilds the derived
// machinery (cohort placement) on the first post-restore update, after
// which warmed empty-transaction updates must be heap-free — snapshots must
// not leave the monitor in a permanently colder (allocating) configuration.
TEST_F(AllocCountTest, RestoredMonitorSteadyStateAllocatesNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_EQ(m->options().backend, MonitorBackend::kAutomaton);
  ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {11})).ok());
  Transaction retract;
  retract.push_back(UpdateOp::Delete(sub_, {7}));
  ASSERT_TRUE(m->ApplyTransaction(retract).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(m->ApplyTransaction(Transaction{}).ok());
  }

  auto blob = MonitorCheckpoint::Serialize(*m);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored_r = MonitorCheckpoint::Restore(*blob);
  ASSERT_TRUE(restored_r.ok()) << restored_r.status().ToString();
  auto restored = std::move(*restored_r);

  // Warm-up after restore: first update rebuilds the cohort placement;
  // subsequent updates settle every table.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(restored->ApplyTransaction(Transaction{}).ok());
  }

  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (int i = 0; i < 20; ++i) {
    auto v = restored->ApplyTransaction(Transaction{});
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->potentially_satisfied);
    ASSERT_EQ(v->backend, MonitorBackend::kAutomaton);
  }
  EXPECT_EQ(window.allocations(), 0u)
      << "restored monitors must reach the same allocation-free steady state";
  EXPECT_EQ(window.deallocations(), 0u);
}

// PropState regression (the unordered_set -> sorted inline small-vector
// bugfix): up to kInlineTrues distinct true letters live entirely inline.
TEST_F(AllocCountTest, PropStateInlineOperationsAllocateNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  testing::ResetAllocCounts();
  testing::AllocWindow window;
  ptl::PropState st;
  for (ptl::PropId p = 0; p < ptl::PropState::kInlineTrues; ++p) {
    st.Set(p * 3, true);
  }
  for (ptl::PropId p = 0; p < ptl::PropState::kInlineTrues; ++p) {
    EXPECT_TRUE(st.Get(p * 3));
    EXPECT_FALSE(st.Get(p * 3 + 1));
  }
  ptl::PropState copy = st;       // inline copy
  copy.Set(0, false);             // inline erase
  EXPECT_FALSE(copy.Get(0));
  EXPECT_TRUE(st.Get(0));
  EXPECT_EQ(window.allocations(), 0u);
}

// Flat-table hit paths allocate nothing once warm: map hits, set re-inserts,
// and Clear() keeps bucket storage.
TEST_F(AllocCountTest, FlatContainerHitPathsAllocateNothing) {
  ASSERT_TRUE(testing::AllocCountingAvailable());
  flat::FlatMap<uint64_t, uint64_t> map;
  flat::FlatSet<uint32_t> set;
  for (uint64_t i = 0; i < 100; ++i) {
    map.Emplace(i, i * i);
    set.Insert(static_cast<uint32_t>(i));
  }
  testing::ResetAllocCounts();
  testing::AllocWindow window;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_NE(map.Get(i), nullptr);
    ASSERT_FALSE(set.Insert(static_cast<uint32_t>(i)));
  }
  set.Clear();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(set.Insert(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(window.allocations(), 0u);
}

}  // namespace
}  // namespace checker
}  // namespace tic
