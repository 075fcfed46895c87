// Differential fuzz suite for the monitor backends: on randomly generated
// safety sentences and random update streams, the automaton backend
// (cohort slots, point-algebra units, and progression for the components
// outside both fragments) must produce exactly the same per-update verdicts
// as the literal progression + CheckSat procedure. Three families:
//   A. Random safe matrices (1 and 2 variables) over random streams with
//      fresh elements arriving mid-stream (placement growth, catch-up).
//   B. Spill-sized closures: deep Next-chains whose grounded joint closure
//      exceeds the FlatBits inline width (256 bits), exercising the heap
//      bitset path on both backends.
//   C. Batch checks with require_safety=false on non-safe formulas: the
//      closure-bitset TransitionSystem's eager (SCC) liveness mode against
//      progression + tableau, including the clamped-budget fallback.
//
// Case generation and the backend-equality oracle live in src/testing/
// (shared with checker_property_test and fuzz_monitor_diff); seed mode there
// reproduces the historical per-seed cases bit for bit, so the seed bases and
// family sizes below cover exactly what they always covered. Failure messages
// carry the full reproducer text; re-run one case with TIC_REPLAY_SEED=<c>,
// or save the reproducer to a file and set TIC_REPLAY_FILE to replay it
// through the ReplayFromFile test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/extension.h"
#include "fotl/factory.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

// Runs the shared backend-equality oracle; on violation the detail already
// ends in the serialized reproducer.
void ExpectBackendsAgree(const tt::FotlCase& kase, const std::string& label) {
  auto r = tt::BackendVerdictsAgree(kase);
  ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString()
                      << "\nreproducer:\n" << tt::SerializeCase(kase);
  ASSERT_TRUE(r->pass) << label << ": " << r->detail;
}

TEST(BackendDiffTest, RandomSafeSentencesAgreePerUpdate) {
  // Family A: 800 random safe sentences. Streams run over values {1,2,3}
  // with value 4 arriving in the back half — every case with a late fresh
  // element exercises incremental placement and word catch-up.
  constexpr int kCases = 800;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x9e3779b9u + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    ExpectBackendsAgree(kase, "caseA#" + std::to_string(c) +
                                  " (re-run with TIC_REPLAY_SEED=" +
                                  std::to_string(c) + ")");
  }
}

TEST(BackendDiffTest, SpillSizedClosuresAgreePerUpdate) {
  // Family B: the grounded joint formula carries a deep Next-chain per
  // instance, pushing the closure past FlatBits's 256 inline bits, so both
  // backends run the heap-spill bitset path.
  constexpr int kCases = 100;
  for (int c = 0; c < kCases; ++c) {
    tt::Entropy ent(0x85ebca6bu + static_cast<uint32_t>(c));
    tt::CaseBuilder builder(2);
    // G (P0(x) -> X^k P1(x)), k in [60, 120): closure size scales with k and
    // with the number of instances.
    size_t k = 60 + ent.Below(60);
    auto& fac = *builder.factory();
    fotl::Formula head = *fac.Atom(builder.preds()[1], {builder.Var(0)});
    for (size_t i = 0; i < k; ++i) head = fac.Next(head);
    fotl::Formula matrix =
        fac.Implies(*fac.Atom(builder.preds()[0], {builder.Var(0)}), head);
    fotl::Formula phi = builder.Quantify(fac.Always(matrix), 1);
    size_t len = 4 + ent.Below(3);
    std::vector<Transaction> stream;
    for (size_t t = 0; t < len; ++t) {
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), {1, 2}));
    }
    ExpectBackendsAgree(builder.Finish(phi, 1, std::move(stream)),
                        "caseB#" + std::to_string(c));
  }
}

TEST(BackendDiffTest, BatchNonSafeChecksAgree) {
  // Family C: the batch checker with require_safety=false on formulas with
  // positive Until/Eventually — the TransitionSystem's eager SCC-liveness
  // mode (and, where compilation exceeds the clamped budget, its fallback to
  // progression) against the reference two-phase procedure.
  constexpr int kCases = 200;
  int automaton_ran = 0;
  for (int c = 0; c < kCases; ++c) {
    tt::Entropy ent(0xc2b2ae35u + static_cast<uint32_t>(c));
    tt::CaseBuilder builder(2 + ent.Below(2));
    size_t num_vars = 1;
    int depth = 2 + static_cast<int>(ent.Below(2));
    fotl::Formula matrix = builder.GenCosafe(&ent, num_vars, depth);
    if (ent.Below(2) == 0) {
      matrix = builder.factory()->And(matrix,
                                      builder.GenSafe(&ent, num_vars, 2));
    }
    fotl::Formula phi = builder.Quantify(matrix, num_vars);

    History h = *History::Create(builder.vocab(), {});
    size_t len = 2 + ent.Below(3);
    std::vector<Transaction> stream;
    for (size_t t = 0; t < len; ++t) {
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), {1, 2}));
      ASSERT_TRUE(ApplyTransaction(&h, stream.back()).ok());
    }
    tt::FotlCase kase = builder.Finish(phi, num_vars, std::move(stream));

    CheckOptions prog_opts;
    prog_opts.backend = MonitorBackend::kProgression;
    prog_opts.require_safety = false;
    prog_opts.want_witness = false;
    CheckOptions auto_opts = prog_opts;
    auto_opts.backend = MonitorBackend::kAutomaton;

    auto rp = CheckPotentialSatisfaction(*builder.factory(), phi, h, {},
                                         prog_opts);
    auto ra = CheckPotentialSatisfaction(*builder.factory(), phi, h, {},
                                         auto_opts);
    ASSERT_TRUE(rp.ok()) << "caseC#" << c << ": " << rp.status().ToString()
                         << "\nreproducer:\n" << tt::SerializeCase(kase);
    ASSERT_TRUE(ra.ok()) << "caseC#" << c << ": " << ra.status().ToString()
                         << "\nreproducer:\n" << tt::SerializeCase(kase);
    EXPECT_EQ(rp->potentially_satisfied, ra->potentially_satisfied)
        << "caseC#" << c << "\nreproducer:\n" << tt::SerializeCase(kase);
    if (ra->tableau_stats.num_expansions == 0) ++automaton_ran;
  }
  // The clamped-budget fallback must not have swallowed the whole family:
  // most single-variable groundings compile fine.
  EXPECT_GT(automaton_ran, kCases / 2);
}

// TIC_REPLAY_FILE=<path>: load a reproducer written from a failure message
// (or by the shrinker) and re-run the full oracle kit on it. Skipped when the
// variable is unset, so the test is inert in normal CI runs.
TEST(BackendDiffReplayTest, ReplayFromFile) {
  auto file = tt::ReplayFileFromEnv();
  if (!file) GTEST_SKIP() << "TIC_REPLAY_FILE not set";
  auto kase = tt::LoadCaseFile(*file);
  ASSERT_TRUE(kase.ok()) << kase.status().ToString();
  auto r = tt::BackendVerdictsAgree(*kase);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->pass) << r->detail;
  auto b = tt::MonitorMatchesBatch(*kase);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->pass) << b->detail;
  auto p = tt::PrefixClosureHolds(*kase);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(p->pass) << p->detail;
}

}  // namespace
}  // namespace checker
}  // namespace tic
