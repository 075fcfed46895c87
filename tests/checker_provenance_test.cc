// Tests for verdict provenance: the Diagnosis a monitor assembles when it
// flips to permanently violated (grounded substitution, violating letter
// delta, residual trajectory, collapsed subformula), trigger-firing
// explanations, and — the load-bearing part — the differential witness-replay
// suite: on >=500 generated safety cases, every violated verdict must carry a
// Diagnosis whose reconstructed transaction stream, replayed into a FRESH
// monitor, reproduces the violation at the same update index.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/monitor.h"
#include "checker/provenance.h"
#include "checker/trigger.h"
#include "fotl/parser.h"
#include "testing/generators.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

class ProvenanceTest : public ::testing::Test {
 protected:
  ProvenanceTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
    submit_once_ =
        *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
  }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills,
                  std::vector<Value> unsubs = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    for (Value v : unsubs) t.push_back(UpdateOp::Delete(sub_, {v}));
    return t;
  }

  // Drives the canonical submit-once violation: Sub(7), withdraw, resubmit.
  // The violation lands at t=2. With `compact`, the monitor folds its
  // history after every update (history-less monitoring).
  MonitorVerdict PlantViolation(Monitor* m, bool compact = false) {
    auto apply = [&](const Transaction& txn) {
      auto v = m->ApplyTransaction(txn);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (compact) {
        EXPECT_TRUE(m->Compact().ok());
        EXPECT_EQ(m->history().length(), 1u);
      }
      return *v;
    };
    apply(Txn({7}, {}));
    apply(Txn({}, {}, {7}));
    return apply(Txn({7}, {}));
  }

  VocabularyPtr vocab_;
  PredicateId sub_, fill_;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
};

TEST_F(ProvenanceTest, PlantedViolationYieldsGroundedDiagnosis) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_TRUE(v.permanently_violated);
  ASSERT_FALSE(v.explanations().empty());
  EXPECT_GE(v.num_culprits, 1u);

  const Diagnosis& d = v.explanations().front();
  EXPECT_EQ(d.time, 2u);
  ASSERT_FALSE(d.joint);
  // The culprit substitution is x=7, by name.
  EXPECT_NE(d.assignment_text.find("x=7"), std::string::npos)
      << d.assignment_text;
  // The violating delta contains the fatal re-insert of Sub(7).
  bool saw_insert = false;
  for (const DiagnosisDelta& delta : d.delta) {
    if (delta.inserted && delta.atom == "Sub(7)") saw_insert = true;
  }
  EXPECT_TRUE(saw_insert) << d.Render();
  // A subformula was pinned via the closure index, and the trajectory ends at
  // the violation instant.
  EXPECT_NE(d.subformula, nullptr);
  ASSERT_FALSE(d.trajectory.empty());
  EXPECT_EQ(d.trajectory.back().time, d.time);
  EXPECT_NE(d.grounded, nullptr);
  EXPECT_NE(d.factory, nullptr);
}

TEST_F(ProvenanceTest, RenderIsHumanReadable) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_FALSE(v.explanations().empty());
  std::string text = v.explanations().front().Render();
  EXPECT_NE(text.find("violation at t=2"), std::string::npos) << text;
  EXPECT_NE(text.find("x=7"), std::string::npos) << text;
  EXPECT_NE(text.find("+Sub(7)"), std::string::npos) << text;
  EXPECT_NE(text.find("trajectory"), std::string::npos) << text;
}

TEST_F(ProvenanceTest, DiagnosisPersistsOnDeadVerdicts) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict flip = PlantViolation(m.get());
  ASSERT_FALSE(flip.explanations().empty());
  auto later = m->ApplyTransaction(Txn({}, {3}));
  ASSERT_TRUE(later.ok());
  ASSERT_TRUE(later->permanently_violated);
  ASSERT_FALSE(later->explanations().empty());
  EXPECT_EQ(later->explanations().front().time, 2u);
  // Same shared diagnosis, not a rebuilt one.
  EXPECT_EQ(later->diagnoses.get(), flip.diagnoses.get());
}

TEST_F(ProvenanceTest, ProvenanceOffYieldsNoDiagnosis) {
  CheckOptions options;
  options.provenance = false;
  auto m = *Monitor::Create(fac_, submit_once_, {}, options);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_TRUE(v.permanently_violated);
  EXPECT_TRUE(v.explanations().empty());
  EXPECT_EQ(v.num_culprits, 0u);
}

TEST_F(ProvenanceTest, AllModesAndBackendsProduceADiagnosis) {
  struct Config {
    MonitorMode mode;
    MonitorBackend backend;
    bool compact;
    const char* label;
  };
  const Config configs[] = {
      {MonitorMode::kEager, MonitorBackend::kAutomaton, false,
       "eager/automaton"},
      {MonitorMode::kEager, MonitorBackend::kProgression, false,
       "eager/progression"},
      {MonitorMode::kLazy, MonitorBackend::kProgression, false, "lazy"},
      {MonitorMode::kEager, MonitorBackend::kProgression, true,
       "historyless/progression"},
  };
  for (const Config& cfg : configs) {
    CheckOptions options;
    options.backend = cfg.backend;
    auto m = *Monitor::Create(fac_, submit_once_, {}, options, cfg.mode);
    MonitorVerdict v = PlantViolation(m.get(), cfg.compact);
    ASSERT_TRUE(v.permanently_violated) << cfg.label;
    ASSERT_FALSE(v.explanations().empty()) << cfg.label;
    const Diagnosis& d = v.explanations().front();
    EXPECT_EQ(d.time, 2u) << cfg.label;
    EXPECT_FALSE(d.Render().empty()) << cfg.label;
  }
}

TEST_F(ProvenanceTest, TrajectoryAfterCompactReplaysFromTheCheckpoint) {
  // Sub(7) at t=5, folded; withdrawn at t=6, folded; resubmitted at t=7. The
  // culprit's trajectory must replay from its checkpoint formula, not from
  // the t=0 grounding, and count absolute instants.
  for (MonitorBackend backend :
       {MonitorBackend::kAutomaton, MonitorBackend::kProgression}) {
    const char* label =
        backend == MonitorBackend::kAutomaton ? "automaton" : "progression";
    CheckOptions options;
    options.backend = backend;
    auto m = *Monitor::Create(fac_, submit_once_, {}, options);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(m->ApplyTransaction({}).ok());
    ASSERT_TRUE(m->ApplyTransaction(Txn({7}, {})).ok());
    ASSERT_TRUE(m->Compact().ok());
    ASSERT_TRUE(m->ApplyTransaction(Txn({}, {}, {7})).ok());
    ASSERT_TRUE(m->Compact().ok());
    auto v = m->ApplyTransaction(Txn({7}, {}));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_TRUE(v->permanently_violated) << label;
    ASSERT_FALSE(v->explanations().empty()) << label;
    const Diagnosis& d = v->explanations().front();
    EXPECT_EQ(d.time, 7u) << label;
    ASSERT_FALSE(d.trajectory.empty()) << label;
    EXPECT_EQ(d.trajectory.front().time, 6u) << label << "\n" << d.Render();
    EXPECT_EQ(d.trajectory.back().time, d.time) << label << "\n" << d.Render();
    ASSERT_NE(d.residual, nullptr) << label;
    EXPECT_EQ(d.residual->kind(), ptl::Kind::kFalse)
        << label << "\n" << d.Render();
    EXPECT_NE(d.subformula, nullptr) << label;
  }
}

TEST_F(ProvenanceTest, WitnessReplayReproducesThePlantedViolation) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_FALSE(v.explanations().empty());
  auto replay = ReplayHistory(fac_, submit_once_, m->history());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->violated);
  EXPECT_EQ(replay->violated_at, v.explanations().front().time);
  EXPECT_EQ(replay->updates, m->history().length());
}

TEST_F(ProvenanceTest, TransactionsFromHistoryRebuildStateForState) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({1, 2}, {2})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({3}, {}, {1})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {3})).ok());
  auto txns = TransactionsFromHistory(m->history());
  ASSERT_TRUE(txns.ok());
  History rebuilt = *History::Create(vocab_, {});
  for (const Transaction& t : *txns) {
    ASSERT_TRUE(ApplyTransaction(&rebuilt, t).ok());
  }
  ASSERT_EQ(rebuilt.length(), m->history().length());
  for (size_t t = 0; t < rebuilt.length(); ++t) {
    for (PredicateId p : {sub_, fill_}) {
      for (Value e : {1, 2, 3}) {
        EXPECT_EQ(rebuilt.state(t).Holds(p, {e}),
                  m->history().state(t).Holds(p, {e}))
            << "t=" << t << " pred=" << p << " elem=" << e;
      }
    }
  }
}

TEST_F(ProvenanceTest, TriggerFiringsCarryAnExplanation) {
  auto mgr = *TriggerManager::Create(fac_);
  ASSERT_TRUE(
      mgr->AddTrigger("resubmitted",
                      *fotl::Parse(fac_.get(), "F (Sub(x) & X F Sub(x))"))
          .ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({7}, {})).ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({}, {}, {7})).ok());
  auto firings = mgr->OnTransaction(Txn({7}, {}));
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  const std::string& text = (*firings)[0].explanation;
  EXPECT_NE(text.find("\"resubmitted\""), std::string::npos) << text;
  EXPECT_NE(text.find("t=2"), std::string::npos) << text;
  EXPECT_NE(text.find("x=7"), std::string::npos) << text;
  EXPECT_NE(text.find("potential satisfaction"), std::string::npos) << text;
}

TEST_F(ProvenanceTest, TriggerExplanationsAreOptional) {
  CheckOptions options;
  options.provenance = false;
  auto mgr = *TriggerManager::Create(fac_, {}, options);
  ASSERT_TRUE(
      mgr->AddTrigger("resubmitted",
                      *fotl::Parse(fac_.get(), "F (Sub(x) & X F Sub(x))"))
          .ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({7}, {})).ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({}, {}, {7})).ok());
  auto firings = mgr->OnTransaction(Txn({7}, {}));
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  EXPECT_TRUE((*firings)[0].explanation.empty());
}

// ---------------------------------------------------------------------------
// The differential witness-replay suite: >=500 seeded generated cases; every
// violated verdict must carry a Diagnosis, and a fresh monitor fed the
// reconstructed stream must reach the same verdict at the same index. With
// `compact`, the monitor under test folds its history after every update, so
// the stream is rebuilt from the case instead of from the monitor.

void RunDifferentialFamily(uint32_t seed_base, int num_cases, MonitorMode mode,
                           MonitorBackend backend, bool cohorts,
                           int* violated_count, bool compact = false) {
  auto replay_seed = tt::ReplaySeedFromEnv();
  for (int c = 0; c < num_cases; ++c) {
    if (replay_seed && *replay_seed != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(seed_base + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    const std::string label =
        "case#" + std::to_string(c) + " seed_base=" + std::to_string(seed_base);

    CheckOptions options;
    options.backend = backend;
    options.cohort_stepping = cohorts;
    auto monitor =
        Monitor::Create(kase.factory, kase.sentence, {}, options, mode);
    ASSERT_TRUE(monitor.ok()) << label << ": " << monitor.status().ToString()
                              << "\nreproducer:\n" << tt::SerializeCase(kase);

    bool violated = false;
    size_t violated_at = 0;
    for (size_t i = 0; i < kase.stream.size(); ++i) {
      auto v = (*monitor)->ApplyTransaction(kase.stream[i]);
      ASSERT_TRUE(v.ok()) << label << ": " << v.status().ToString();
      if (compact) {
        Status s = (*monitor)->Compact();
        ASSERT_TRUE(s.ok()) << label << ": " << s.ToString();
        ASSERT_EQ((*monitor)->history().length(), 1u) << label;
      }
      if (violated) continue;  // dead monitor: diagnosis checked below
      if (v->permanently_violated) {
        violated = true;
        violated_at = i;
        ASSERT_FALSE(v->explanations().empty())
            << label << ": violated at update " << i
            << " without a diagnosis\nreproducer:\n" << tt::SerializeCase(kase);
        const Diagnosis& d = v->explanations().front();
        EXPECT_EQ(d.time, i) << label;
        EXPECT_FALSE(d.Render().empty()) << label;
      }
    }
    if (!violated) continue;
    ++*violated_count;

    History history = (*monitor)->history();
    if (compact) {
      history = *History::Create(kase.factory->vocabulary());
      for (const Transaction& txn : kase.stream) {
        ASSERT_TRUE(ApplyTransaction(&history, txn).ok()) << label;
      }
    }
    auto outcome = ReplayHistory(kase.factory, kase.sentence, history,
                                 options, mode);
    ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.status().ToString();
    EXPECT_TRUE(outcome->violated)
        << label << ": replay lost the violation\nreproducer:\n"
        << tt::SerializeCase(kase);
    EXPECT_EQ(outcome->violated_at, violated_at)
        << label << ": replay moved the violation\nreproducer:\n"
        << tt::SerializeCase(kase);
  }
}

TEST(ProvenanceDifferentialTest, EagerAutomatonWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e001u, 300, MonitorMode::kEager,
                        MonitorBackend::kAutomaton, /*cohorts=*/true,
                        &violated);
  // The generator's churn streams violate often; an unviolated sweep would
  // mean this suite tests nothing.
  EXPECT_GE(violated, 50) << "suspiciously few violations";
}

TEST(ProvenanceDifferentialTest, EagerProgressionWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e002u, 150, MonitorMode::kEager,
                        MonitorBackend::kProgression, /*cohorts=*/false,
                        &violated);
  EXPECT_GE(violated, 25);
}

TEST(ProvenanceDifferentialTest, LazyModeWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e003u, 100, MonitorMode::kLazy,
                        MonitorBackend::kProgression, /*cohorts=*/false,
                        &violated);
  EXPECT_GE(violated, 15);
}

TEST(ProvenanceDifferentialTest, HistoryLessModeWitnessesReplay) {
  // History-less monitoring: progression compacted after every update.
  int violated = 0;
  RunDifferentialFamily(0x51a7e004u, 100, MonitorMode::kEager,
                        MonitorBackend::kProgression, /*cohorts=*/false,
                        &violated, /*compact=*/true);
  EXPECT_GE(violated, 15);
}

}  // namespace
}  // namespace checker
}  // namespace tic
