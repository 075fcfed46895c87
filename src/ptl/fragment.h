#ifndef TIC_PTL_FRAGMENT_H_
#define TIC_PTL_FRAGMENT_H_

/// Syntactic witness extraction for the point-algebra / order-constraint
/// fragment of grounded safety residuals — the "cheap" fragment the
/// tractable-fragment router (checker/pointalg.*) evaluates without ever
/// touching the tableau or progression.
///
/// A grounded PTL formula lies in the fragment when it is a conjunction of
/// *units*, each of one of these shapes (a, r conjunctions of literals, c a
/// disjunction of literals):
///
///   c                     - checked at the first state only
///   G c                   - invariant clause
///   r R c                 - weak release: c until (inclusive) a state with r
///   G (a -> G c)          - trigger, sticky payload
///   G (a -> (r R c))      - trigger, re-armable release payload
///   G (a -> c)            - flattens to the invariant clause (!a | c)
///
/// The release and G-clause payloads are also recognized in their negated
/// spellings `!(l U r)` == `(!l) R (!r)` and `!F b` == `G !b` — the surface
/// syntax has no release operator, so grounded constraints arrive as
/// negated-until nodes and would otherwise silently fall off the fast path.
///
/// This covers exactly the order/point constraints the QTCN front-end
/// compiles to: "first(i) at-or-before first(j)" is `Ei R (!Ej | Ei)`,
/// strict precedence is `(Ei & !Ej) R !Ej`, and domain invariants/triggers
/// are the G-shapes.
///
/// Why these exact shapes: each unit's progression residual is determined by
/// a constant number of activation bits, and — the property the router's
/// verdict soundness rests on — a *currently-unviolated* unit set is always
/// jointly satisfied by repeating the current letter forever (weak release
/// never forces a discharge; a trigger whose antecedent holds now has already
/// activated and had its clause checked). So the conjunction's residual stays
/// satisfiable until the first state where an active clause is false, which
/// makes the eager potential-satisfaction verdict equal to watched-literal
/// clause falsification: O(letters-flipped) per update, no tableau.
///
/// The extraction is purely syntactic over the hash-consed node graph and
/// uses explicit stacks throughout (repo rule: no recursive AST walks).

#include <cstdint>
#include <vector>

#include "ptl/formula.h"

namespace tic {
namespace ptl {

/// One (possibly negated) watched proposition.
struct PaLit {
  PropId prop = 0;
  bool negated = false;
};

/// One fragment unit. Literal ranges index PaShape::lits and are contiguous
/// per unit, in the order ant, rel, cls: `ant` is the trigger antecedent a,
/// `rel` the release discharge conjunction r, `cls` the watched clause c.
struct PaUnit {
  enum class Kind : uint8_t {
    kOnce,            // bare clause: first state only
    kInvariant,       // G c
    kRelease,         // r R c (top level, obligation live from the start)
    kTrigger,         // G (a -> G c): activation is sticky
    kTriggerRelease,  // G (a -> (r R c)): re-armed whenever a holds
  };
  Kind kind = Kind::kInvariant;
  uint32_t ant_begin = 0, ant_end = 0;
  uint32_t rel_begin = 0, rel_end = 0;
  uint32_t cls_begin = 0, cls_end = 0;
  /// Clause constant-folded to true (or antecedent to false): the unit can
  /// never be violated. (A clause folded to false rejects the whole match
  /// instead — such residuals are the automaton path's job.)
  bool trivially_true = false;

  uint32_t ant_size() const { return ant_end - ant_begin; }
  uint32_t rel_size() const { return rel_end - rel_begin; }
  uint32_t cls_size() const { return cls_end - cls_begin; }
};

/// Compiled fragment witness for one grounded formula.
struct PaShape {
  std::vector<PaLit> lits;
  std::vector<PaUnit> units;
};

/// True iff `f` is a conjunction of fragment units; fills `*out` with the
/// compiled witness (cleared first). On false, `*out` is unspecified.
/// `f` must be non-null; True matches (zero units), False does not.
bool MatchPointAlgebra(Formula f, PaShape* out);

}  // namespace ptl
}  // namespace tic

#endif  // TIC_PTL_FRAGMENT_H_
