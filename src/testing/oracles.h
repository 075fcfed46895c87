#ifndef TIC_TESTING_ORACLES_H_
#define TIC_TESTING_ORACLES_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "ptl/tableau.h"
#include "testing/generators.h"

namespace tic {
namespace testing {

/// \brief Verdict of one metamorphic oracle on one case. `pass == false`
/// means the paper-derived identity was violated; `detail` then carries a
/// human-readable explanation ending in the full reproducer text, so a CI log
/// alone suffices to replay the failure. Infrastructure errors (a monitor
/// rejecting the sentence, a tableau failing) are reported through the
/// surrounding Result instead — the distinction matters to the shrinker,
/// which must treat "invalid candidate" differently from "still failing".
struct OracleResult {
  bool pass = true;
  std::string detail;
};

// ---------------------------------------------------------------------------
// The oracle kit: each function checks one identity between independent
// constructions of the paper, on one generated case.
// ---------------------------------------------------------------------------

/// \brief Tableau-engine equality: kLegacy and kBitset must agree on
/// sat/unsat, and each engine's lasso witness must validate under the
/// independent word evaluator. Optionally reports the shared verdict.
Result<OracleResult> TableauEnginesAgree(ptl::Factory* fac, ptl::Formula f,
                                         bool* satisfiable = nullptr);

/// \brief Monitor-backend equality: the automaton backend (cohort slots,
/// point-algebra units, progression for the rest) must produce exactly the
/// per-update verdicts of the literal Lemma 4.2 progression + CheckSat
/// procedure.
Result<OracleResult> BackendVerdictsAgree(const FotlCase& c);

/// \brief Cohort-configuration equality: the automaton backend — cohort
/// lockstep slots (SoA states, dense-table gather stepping) for the
/// components its placement rule sends there, progression for the rest —
/// with offline minimization forced (interval 1) and disabled
/// (interval 0) must produce exactly the per-update verdicts of the literal
/// progression baseline, on every transaction of the case.
Result<OracleResult> CohortConfigsAgree(const FotlCase& c);

/// \brief Minimizer metamorphic oracle on one compiled PTL formula: stepping
/// a TransitionSystem through `steps` random letters must report identical
/// (any_survivor, live) per step whether or not MinimizeNow runs at random
/// points along the way (states remapped through Representative), and the
/// pass must be idempotent — a second consecutive run refines nothing and
/// leaves the representative map unchanged. Returns pass vacuously when the
/// formula exceeds the compile budget (random non-safe formulas may).
Result<OracleResult> MinimizedAutomatonAgrees(ptl::Factory* fac, ptl::Formula f,
                                              Entropy* ent, size_t steps);

/// \brief Monitor-vs-batch agreement: the incremental monitor's verdict after
/// each transaction must equal a from-scratch CheckPotentialSatisfaction on
/// the corresponding history prefix.
Result<OracleResult> MonitorMatchesBatch(const FotlCase& c);

/// \brief Prefix-closure of Pref(C) (Section 2): once a history prefix falls
/// out of Pref(C) no extension re-enters it, so the per-prefix verdict
/// sequence must be monotone non-increasing, and a permanent-violation flag
/// must coincide with (and persist after) the first NO.
Result<OracleResult> PrefixClosureHolds(const FotlCase& c);

/// \brief Renaming invariance: the Theorem 4.1 construction depends only on
/// the *pattern* of the history, not on which universe elements realize it.
/// Renaming every element of the stream through the bijection `perm` must
/// leave every per-update verdict unchanged.
Result<OracleResult> RenamingInvariant(const FotlCase& c,
                                       const std::function<Value(Value)>& perm);

/// \brief Knobs of RouterConfigsAgree.
struct RouterDiffOptions {
  /// Fails unless the automaton monitor reports at least this many
  /// point-algebra instances at some update (guards against the suite
  /// silently testing nothing when a generator drifts out of the fragment).
  size_t min_routed = 0;
  /// Every monitor but the progression reference runs Compact() after each
  /// `compact_every`-th update (0: never).
  size_t compact_every = 0;
  /// Also runs a MonitorMode::kLazy monitor (compacted like the others) and
  /// fails unless its verdict equals the reference's at every update: the
  /// Lipeck–Saake weak verdict is exact on the release fragment.
  bool lazy_equals_eager = false;
};

/// \brief Fragment-placement equality: the automaton backend, which places
/// each letter-connected component on the point-algebra engine, on release
/// cohort slots or on progression (and runs a closed
/// non-universal always-past sentence on the past evaluator), must produce
/// exactly the per-update verdicts of the literal progression baseline, on
/// every transaction of the case. When the sentence is closed and
/// always-past and past::PastMonitor accepts it, that evaluator — built
/// directly, whatever route the monitor takes — must agree too: on a
/// universal sentence this is the overlap where potential satisfaction and
/// the classical G-past verdict coincide.
Result<OracleResult> RouterConfigsAgree(const FotlCase& c,
                                        const RouterDiffOptions& options = {});

/// \brief Trigger duality (Section 2): the trigger for condition C fires at t
/// for substitution theta iff !C(theta) is NOT potentially satisfied. Runs
/// TriggerManager (automaton backend) against an independent dual check that
/// enumerates substitutions over R_D and calls the progression backend.
/// `c.sentence` is the open existential condition.
Result<OracleResult> TriggerDualityHolds(const FotlCase& c);

// ---------------------------------------------------------------------------
// Test-only fault injection.
// ---------------------------------------------------------------------------

/// \brief When set, BackendVerdictsAgree reports a planted divergence on any
/// case for which the hook returns true (after running both real monitors, so
/// candidate validity is still enforced). Exists so the shrinker test can
/// plant a deterministic "bug" and prove minimization converges; never set it
/// outside tests. Pass nullptr to clear.
void SetBackendFaultHookForTest(std::function<bool(const FotlCase&)> hook);

}  // namespace testing
}  // namespace tic

#endif  // TIC_TESTING_ORACLES_H_
