#ifndef TIC_PTL_SAFETY_H_
#define TIC_PTL_SAFETY_H_

#include "common/result.h"
#include "ptl/formula.h"

namespace tic {
namespace ptl {

/// \brief Sound syntactic safety test in the spirit of Sistla's
/// characterization (cited in Sections 2 and 6): a formula whose negation
/// normal form contains no Until and no Eventually — i.e., is built from
/// literals with And/Or/Next/Release/Always — defines a safety property.
///
/// This is sufficient but not complete (recognizing propositional safety
/// exactly is decidable but expensive; Section 6 conjectures the syntactic
/// route generalizes to universal biquantified formulas, which is exactly how
/// the checker uses this test after grounding).
bool IsSyntacticallySafe(Factory* factory, Formula f);

/// \brief The release fragment: negation normal form built from literals with
/// And, Or, Release and Always only — syntactically safe and X-free.
///
/// On this fragment Lemma 4.2's satisfiability test collapses: a residual
/// that has just consumed a letter L is satisfiable iff it is not `false`,
/// and L repeated forever is a model (by induction: progression turns a
/// literal into `true` only when L satisfies it, and on the constant word
/// L^omega an R or a G holds iff its right side holds at position 0). One
/// witness serves every formula that consumed the same L, so satisfiability
/// of a conjunction factors into its conjuncts' verdicts even when they share
/// atoms. Next breaks the argument: after {p, q}, `G (p -> X G !p)` and
/// `G (q -> X p)` are each satisfiable but their conjunction is not.
bool IsReleaseFragment(Factory* factory, Formula f);

/// \brief Sound syntactic *liveness*-shape test: NNF built from True plus
/// Until/Eventually/Next over liveness shapes; used in tests to demonstrate
/// the safety/liveness dichotomy of Section 2.
bool IsSyntacticallyCoSafe(Factory* factory, Formula f);

/// \brief Semantic safety check over a bounded horizon, used by tests as an
/// oracle on small formulas: verifies that every "bad" word (one that cannot
/// be extended to a model) has an irredeemable finite prefix of length <=
/// `horizon` over the letters of `props`. Exponential in horizon*|props|;
/// keep both tiny.
Result<bool> BoundedSafetyCheck(Factory* factory, Formula f,
                                const std::vector<PropId>& props, size_t horizon);

}  // namespace ptl
}  // namespace tic

#endif  // TIC_PTL_SAFETY_H_
