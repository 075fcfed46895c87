// Differential fuzz suite for the cohort lockstep path: on randomly
// generated safety sentences and random update streams, the SoA cohort
// stepper (dense state x letter-class table, word-parallel gather, offline
// Hopcroft-style minimization) must produce exactly the same per-update
// verdicts as the literal progression baseline. The shared oracle
// (testing/oracles.h) runs every case through three configurations —
// progression reference, and the automaton backend with cohort minimization
// forced every discovery and disabled — and fails on any sat/violated
// divergence.
//
// Four families:
//   A. Random safe sentences (1 and 2 variables) over churn streams with a
//      fresh element arriving mid-stream: 2-variable cases ground to
//      letter-SHARING instance sets, so the union-find places their
//      components on release cohort slots or progression and the oracle
//      checks the placement split itself; the fresh element exercises
//      incremental cohort growth and, on merges, the demotion + rebuild path.
//   B. Wide single-variable cohorts over a 6-element universe: every
//      grounded instance is letter-disjoint, so the whole population steps
//      through one cohort's gather loop with slots in genuinely distinct
//      states.
//   C. Deep matrices (depth up to 5) on short streams: larger automata, so
//      forced per-update minimization actually collapses states instead of
//      running on trivial two-state machines.
//   D. Families A and C's distributions with Compact() every 1-3 updates on
//      both automaton configurations: engines keep their state across each
//      fold, slots back in their fold state keep their formulas, and
//      MinimizeNow remaps the fold states with the slot states.
//
// Failure messages carry the full reproducer; re-run one case with
// TIC_REPLAY_SEED=<c>.

#include <gtest/gtest.h>

#include <string>

#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

void ExpectCohortConfigsAgree(const tt::FotlCase& kase,
                              const std::string& label,
                              size_t compact_every = 0) {
  auto r = tt::CohortConfigsAgree(kase, compact_every);
  ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString()
                      << "\nreproducer:\n" << tt::SerializeCase(kase);
  ASSERT_TRUE(r->pass) << label << ": " << r->detail;
}

TEST(CohortDiffTest, RandomSafeSentencesAgreeAcrossConfigs) {
  // Family A: 700 random safe sentences with the default generator knobs
  // (the same distribution the backend diff suite runs). The 2-variable
  // draws produce instances sharing ground atoms, which land on release
  // cohort slots or progression; the 1-variable draws cohort.
  constexpr int kCases = 700;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0xb5297a4du + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    ExpectCohortConfigsAgree(kase, "caseA#" + std::to_string(c) +
                                       " (re-run with TIC_REPLAY_SEED=" +
                                       std::to_string(c) + ")");
  }
}

TEST(CohortDiffTest, WideSingleVariableCohortsAgree) {
  // Family B: single-variable sentences over universe {1..6} with element 7
  // arriving in the back half — seven letter-disjoint instances per case,
  // all stepping through one cohort, with one incremental mid-stream append.
  constexpr int kCases = 200;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x68e31da4u + static_cast<uint32_t>(c));
    tt::SafetyCaseOptions opts;
    opts.min_vars = 1;
    opts.max_vars = 1;
    opts.universe = {1, 2, 3, 4, 5, 6};
    opts.fresh_element = 7;
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, opts);
    ExpectCohortConfigsAgree(kase, "caseB#" + std::to_string(c));
  }
}

TEST(CohortDiffTest, DeepMatricesAgreeUnderForcedMinimization) {
  // Family C: matrix depth 4-5 on short streams. The point is automaton
  // size: the interval-1 configuration inside the oracle re-minimizes after
  // every update, so these cases check remapped state ids mid-stream on
  // machines where the quotient is non-trivial.
  constexpr int kCases = 150;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x1b56c4e9u + static_cast<uint32_t>(c));
    tt::SafetyCaseOptions opts;
    opts.min_depth = 4;
    opts.max_depth = 5;
    opts.min_stream = 3;
    opts.max_stream = 5;
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, opts);
    ExpectCohortConfigsAgree(kase, "caseC#" + std::to_string(c));
  }
}

TEST(CohortDiffTest, CompactEveryKUnderForcedMinimizationAgrees) {
  // Family D: even cases draw from family A's distribution (a fresh element
  // mid-stream, so merges after a fold rebuild from kept and rebased
  // formulas), odd cases from deep matrices on family A's stream lengths,
  // where forced minimization collapses states between folds.
  constexpr int kCases = 150;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x3c6ef372u + static_cast<uint32_t>(c));
    tt::SafetyCaseOptions opts;
    if (c % 2 == 1) {
      opts.min_depth = 4;
      opts.max_depth = 5;
    }
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, opts);
    const size_t k = 1 + static_cast<size_t>(c) % 3;
    ExpectCohortConfigsAgree(
        kase, "caseD#" + std::to_string(c) + " compact_every=" + std::to_string(k),
        k);
  }
}

}  // namespace
}  // namespace checker
}  // namespace tic
