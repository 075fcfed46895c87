#ifndef TIC_CHECKER_PROVENANCE_H_
#define TIC_CHECKER_PROVENANCE_H_

/// Verdict provenance: when an update flips the monitor to violated (or a
/// trigger fires), the bounded residual state the paper's feasibility
/// argument rests on (Lemma 4.2) is exactly enough to explain *why* — which
/// grounded substitution failed, which insert/delete ops flipped its
/// letters, how its residual marched to `false`, and which subformula of the
/// constraint became unsatisfiable. A `Diagnosis` packages that, and the
/// replay helpers below differentially verify it: rebuilding the transaction
/// stream from the history and feeding it to a fresh monitor must reproduce
/// the same verdict at the same index.

#include <memory>
#include <string>
#include <vector>

#include "checker/extension.h"
#include "checker/grounding.h"
#include "common/result.h"
#include "db/history.h"
#include "db/update.h"
#include "ptl/closure.h"
#include "ptl/formula.h"

namespace tic {
namespace checker {

/// One letter the fatal update flipped, decoded to the ground atom.
struct DiagnosisDelta {
  ptl::PropId letter = 0;
  bool inserted = false;  ///< true: flipped to true (insert); false: delete
  std::string atom;       ///< rendered ground atom, e.g. "Sub(7)"
};

/// One point of the residual trajectory: the instance's residual AFTER
/// consuming history state `time` (an absolute instant, counting states
/// Monitor::Compact() folded away).
struct DiagnosisStep {
  size_t time = 0;
  ptl::Formula residual = nullptr;
  uint64_t residual_size = 0;
};

/// \brief Why one grounded instance (or the joint conjunction) became
/// permanently violated. Self-contained: holds a shared_ptr to the
/// propositional factory owning every formula it references, so it stays
/// valid after the monitor is gone.
struct Diagnosis {
  size_t time = 0;   ///< index of the violating update
  bool joint = false;  ///< explains the joint conjunction, not one instance

  /// The grounded substitution (Theorem 4.1 instance). Empty when `joint`.
  std::vector<GroundElem> assignment;
  std::string assignment_text;  ///< "x=7, y=z1" using the sentence's var names

  std::shared_ptr<ptl::Factory> factory;  ///< keeps the formulas below alive
  ptl::Formula grounded = nullptr;   ///< original grounded formula
  ptl::Formula last_live = nullptr;  ///< residual entering the fatal state
  ptl::Formula residual = nullptr;   ///< residual after it (False or unsat)

  /// The subformula of `last_live` that became unsatisfiable under the fatal
  /// letter, with its Fischer–Ladner closure index (ptl::ExplainCollapse).
  ptl::Formula subformula = nullptr;
  uint32_t closure_index = ptl::Closure::kNone;
  bool subformula_progressed_to_false = false;

  /// The violating letter delta: the current-letter flips this update's
  /// insert/delete ops caused (all flips, not only this instance's letters).
  std::vector<DiagnosisDelta> delta;

  /// Last-K residual trajectory (K = Monitor's kTrajectoryK), oldest first;
  /// the final entry equals (time, residual).
  std::vector<DiagnosisStep> trajectory;

  /// Multi-line human-readable rendering of everything above.
  std::string Render() const;
};

/// \brief Outcome of replaying a history into a fresh monitor.
struct ReplayOutcome {
  bool violated = false;
  size_t violated_at = 0;  ///< first update index with permanently_violated
  size_t updates = 0;      ///< transactions replayed
};

/// \brief Reconstructs the transaction stream that produced `history` by
/// diffing consecutive states (state 0 diffs against empty). Replaying the
/// result into an empty history rebuilds `history` state for state.
Result<std::vector<Transaction>> TransactionsFromHistory(const History& history);

/// \brief Differential witness replay: rebuilds `history`'s transactions and
/// feeds them to a FRESH monitor for `phi` (same options/mode). A Diagnosis
/// at time T is verified by `violated && violated_at == T` — the fresh
/// monitor must reach the same verdict at the same index.
Result<ReplayOutcome> ReplayHistory(
    std::shared_ptr<fotl::FormulaFactory> fotl_factory, fotl::Formula phi,
    const History& history, CheckOptions options = {},
    MonitorMode mode = MonitorMode::kEager);

}  // namespace checker
}  // namespace tic

#endif  // TIC_CHECKER_PROVENANCE_H_
