#ifndef TIC_TESTING_GENERATORS_H_
#define TIC_TESTING_GENERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/history.h"
#include "db/update.h"
#include "fotl/factory.h"
#include "ptl/formula.h"
#include "testing/rng.h"

namespace tic {
namespace testing {

// ---------------------------------------------------------------------------
// Propositional-TL generators (historically private to ptl_differential_test).
// ---------------------------------------------------------------------------

/// \brief Interns `n` single-letter atoms "a", "b", ... into the factory's
/// vocabulary and returns them as formulas. \pre n <= 26
std::vector<ptl::Formula> PtlAtoms(ptl::Factory* fac, size_t n);

/// \brief Random PTL formula over `atoms`, the connective distribution the
/// tableau differential suite has always used: at depth 0 a (possibly
/// negated) atom; otherwise uniformly one of atom / !atom / !sub / And / Or /
/// Next / Until / Release / Eventually / Always. Seed mode reproduces the
/// historical per-seed formulas bit for bit.
ptl::Formula GeneratePtlFormula(ptl::Factory* fac, Entropy* ent,
                                const std::vector<ptl::Formula>& atoms,
                                int depth);

// ---------------------------------------------------------------------------
// FOTL safety-sentence + update-stream generators (historically duplicated in
// checker_backend_diff_test and checker_property_test).
// ---------------------------------------------------------------------------

/// \brief A complete generated differential-test case: a sentence over a
/// fresh vocabulary of unary predicates P0..Pn-1, plus an update stream.
/// The case owns its vocabulary and formula factory so it can be generated,
/// serialized (reproducer.h), shrunk (shrink.h) and replayed independently
/// of any suite fixture.
struct FotlCase {
  VocabularyPtr vocab;
  std::shared_ptr<fotl::FormulaFactory> factory;
  std::vector<PredicateId> preds;
  /// Quantified variables requested at generation time ("x", then "y").
  /// Factory simplification can drop vacuous quantifiers, so the sentence's
  /// realized universal prefix may be shorter (ParseCase re-derives it).
  size_t num_vars = 1;
  fotl::Formula sentence = nullptr;
  std::vector<Transaction> stream;
};

/// \brief Builder for FOTL cases: a fresh vocabulary of `num_preds` unary
/// predicates and the safe/co-safe random grammars of the backend
/// differential suite. All grammar methods reproduce the historical draw
/// sequences in seed mode.
class CaseBuilder {
 public:
  explicit CaseBuilder(size_t num_preds);

  const VocabularyPtr& vocab() const { return vocab_; }
  const std::shared_ptr<fotl::FormulaFactory>& factory() const { return factory_; }
  const std::vector<PredicateId>& preds() const { return preds_; }

  /// Variable term: index 0 is "x", anything else "y".
  fotl::Term Var(size_t i);

  /// A possibly negated random unary atom over the first `num_vars` variables.
  fotl::Formula Lit(Entropy* ent, size_t num_vars);

  /// Conjunction of 1-2 literals: a safe implication antecedent (its negation
  /// NNFs to a disjunction of literals).
  fotl::Formula LitConj(Entropy* ent, size_t num_vars);

  /// Co-safe side: positive atoms under And/Or/Next/Until/Eventually. Only
  /// ever used under negation, where NNF turns Until into Release and
  /// Eventually into Always — still safe.
  fotl::Formula GenCosafe(Entropy* ent, size_t num_vars, int depth);

  /// Safe grammar: every production stays syntactically safe after NNF.
  fotl::Formula GenSafe(Entropy* ent, size_t num_vars, int depth);
  /// GenCosafe without Next: its negation is in the release fragment.
  fotl::Formula GenCoRelease(Entropy* ent, size_t num_vars, int depth);
  /// Release-fragment grammar: GenSafe without Next, so every production's
  /// grounding NNFs to literals under And, Or, Release and Always
  /// (ptl::IsReleaseFragment).
  fotl::Formula GenRelease(Entropy* ent, size_t num_vars, int depth);

  /// Wraps `matrix` in the universal prefix forall x (y) . matrix.
  fotl::Formula Quantify(fotl::Formula matrix, size_t num_vars);

  /// Assembles the finished case (moves nothing; the builder can keep going).
  FotlCase Finish(fotl::Formula sentence, size_t num_vars,
                  std::vector<Transaction> stream) const;

 private:
  // A random positive unary atom: variable drawn first, then predicate.
  fotl::Formula Atom(Entropy* ent, size_t num_vars);
  // op(lhs, rhs) of two `draw()`s, the right operand drawn first. Every
  // grammar draws in statement order, never inside one call's argument
  // list (whose evaluation order is unspecified), so a seed names the same
  // case under every compiler.
  fotl::Formula Binary(
      fotl::Formula (fotl::FormulaFactory::*op)(fotl::Formula, fotl::Formula),
      const std::function<fotl::Formula()>& draw);

  VocabularyPtr vocab_;
  std::shared_ptr<fotl::FormulaFactory> factory_;
  std::vector<PredicateId> preds_;
};

/// \brief Dense random churn transaction: for every predicate x universe
/// element, insert with probability 1/4 and delete with probability 1/4 (the
/// historical backend-diff stream distribution).
Transaction ChurnTxn(Entropy* ent, const std::vector<PredicateId>& preds,
                     const std::vector<Value>& universe);

/// \brief Single random insert-or-delete transaction (the historical
/// monitor-agreement stream distribution: element drawn first, then the
/// op/predicate combination).
Transaction SingleOpTxn(Entropy* ent, const std::vector<PredicateId>& preds,
                        const std::vector<Value>& universe);

/// \brief Appends one independent random state to `history`: each
/// predicate(element) tuple present with probability 1/2 (the historical
/// brute-force-oracle history distribution).
void AppendRandomState(Entropy* ent, History* history,
                       const std::vector<PredicateId>& preds,
                       const std::vector<Value>& universe);

/// \brief Knobs for GenerateSafetyCase. Defaults reproduce the backend
/// differential suite's family A: 2-3 unary predicates, 1-2 variables,
/// matrix depth 2-4, stream length 5-8 over universe {1,2,3} with element 4
/// arriving in the back half (fresh-element epoch path).
struct SafetyCaseOptions {
  size_t min_preds = 2, max_preds = 3;
  size_t min_vars = 1, max_vars = 2;
  int min_depth = 2, max_depth = 4;
  size_t min_stream = 5, max_stream = 8;
  std::vector<Value> universe = {1, 2, 3};
  /// When >= 0, this element joins the universe for the back half of the
  /// stream; -1 disables the fresh-element arrival.
  Value fresh_element = 4;
  /// Conjoins `x != y -> ((Pi(y) & Pj(x)) -> X Pk(x))` to the matrix, which
  /// links every pair of distinct real elements into one letter-connected
  /// component outside the release fragment: the automaton backend steps
  /// such a case on progression. \pre min_vars == 2
  bool next_anchor = false;
};

/// \brief One-call structure-aware case generator: a closed universal safety
/// sentence `forall x (y) . G matrix` with a churn stream. This is the shared
/// entry point behind the property suites (seed mode) and fuzz_monitor_diff
/// (byte mode).
FotlCase GenerateSafetyCase(Entropy* ent, const SafetyCaseOptions& options = {});

/// \brief A closed 2-variable release-fragment sentence
/// `forall x y . G matrix` (CaseBuilder::GenRelease, depth 2-4, 2-3
/// predicates), so its grounded instances share atoms, with a churn stream of
/// 10-16 updates over universe {1,2,3} in which elements 4 and 5 arrive at
/// one third and two thirds of the stream.
FotlCase GenerateReleaseCase(Entropy* ent);

/// \brief An open existential-fragment trigger condition (free variable "x")
/// over a fresh 2-predicate vocabulary, plus a churn stream: the input shape
/// of the trigger-duality oracle. The condition body is a positive co-safe
/// formula, so its negation is universal and TriggerManager accepts it.
FotlCase GenerateTriggerCase(Entropy* ent);

// ---------------------------------------------------------------------------
// QTCN generator: random point-algebra order constraints compiled to the
// release fragment the tractable router evaluates without a tableau.
// ---------------------------------------------------------------------------

/// \brief One qualitative order constraint between the first occurrences of
/// two event predicates: first(a) before (strict) or at-or-before (weak)
/// first(b), read over each element's per-state letters E_a(x), E_b(x).
struct QtcnConstraint {
  uint32_t a = 0;
  uint32_t b = 0;
  bool strict = false;
};

/// \brief Knobs for GenerateQtcnCase. Universe {1,2} with element 3 arriving
/// in the back half exercises the router's incremental placement path.
struct QtcnCaseOptions {
  size_t min_events = 3, max_events = 5;
  size_t min_constraints = 2, max_constraints = 5;
  size_t min_stream = 6, max_stream = 10;
  std::vector<Value> universe = {1, 2};
  Value fresh_element = 3;
};

/// \brief A generated QTCN case: the network's constraint list plus its
/// FOTL compilation `forall x . AND_i unit_i`, where a weak constraint
/// a <= b compiles to `E_a R (!E_b | E_a)` (spelled through Until — FOTL has
/// no release node — as `!(!E_a U (E_b & !E_a))`) and a strict one to
/// `(E_a & !E_b) R !E_b`. Every grounded instance lands in the point-algebra
/// fragment (ptl/fragment.h), so the router sends the whole case to the
/// watched-literal backend while router-off replays it through the automaton.
struct QtcnCase {
  FotlCase fotl;
  std::vector<QtcnConstraint> constraints;
  size_t num_events = 0;
};

QtcnCase GenerateQtcnCase(Entropy* ent, const QtcnCaseOptions& options = {});

}  // namespace testing
}  // namespace tic

#endif  // TIC_TESTING_GENERATORS_H_
