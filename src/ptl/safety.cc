#include "ptl/safety.h"

#include <initializer_list>
#include <unordered_set>
#include <vector>

#include "ptl/nnf.h"
#include "ptl/progress.h"
#include "ptl/tableau.h"
#include "ptl/word.h"

namespace tic {
namespace ptl {

namespace {

// Iterative (explicit worklist) so arbitrarily deep formulas cannot overflow
// the native stack; the visited set keeps shared DAG nodes from re-expanding.
bool NnfHasKind(Formula f, std::initializer_list<Kind> kinds) {
  std::vector<Formula> stack{f};
  std::unordered_set<Formula> seen;
  while (!stack.empty()) {
    Formula g = stack.back();
    stack.pop_back();
    if (!seen.insert(g).second) continue;
    for (Kind k : kinds) {
      if (g->kind() == k) return true;
    }
    if (g->child(0) != nullptr) stack.push_back(g->child(0));
    if (g->child(1) != nullptr) stack.push_back(g->child(1));
  }
  return false;
}

bool NnfHasEventuality(Formula f) {
  return NnfHasKind(f, {Kind::kUntil, Kind::kEventually});
}

bool NnfHasUniversality(Formula f) {
  return NnfHasKind(f, {Kind::kRelease, Kind::kAlways});
}

}  // namespace

bool IsSyntacticallySafe(Factory* factory, Formula f) {
  return !NnfHasEventuality(ToNnf(factory, f));
}

bool IsReleaseFragment(Factory* factory, Formula f) {
  return !NnfHasKind(ToNnf(factory, f),
                     {Kind::kUntil, Kind::kEventually, Kind::kNext});
}

bool IsSyntacticallyCoSafe(Factory* factory, Formula f) {
  return !NnfHasUniversality(ToNnf(factory, f));
}

namespace {

// The subsets of `props` as propositional states.
class StateSpace {
 public:
  explicit StateSpace(const std::vector<PropId>& props) : props_(props) {}

  size_t size() const { return size_t{1} << props_.size(); }

  PropState State(size_t code) const {
    PropState s;
    for (size_t i = 0; i < props_.size(); ++i) {
      if ((code >> i) & 1) s.Set(props_[i], true);
    }
    return s;
  }

 private:
  const std::vector<PropId>& props_;
};

// True when every finite prefix of the lasso `w` has a satisfiable residual
// under progression (i.e., every prefix of w extends to SOME model of f).
Result<bool> AllPrefixesExtendable(Factory* factory, Formula f,
                                   const UltimatelyPeriodicWord& w) {
  Formula residual = f;
  std::unordered_set<Formula> seen_at_loop_entry;
  size_t pos = 0;
  for (size_t guard = 0; guard < 10000; ++guard) {
    TIC_ASSIGN_OR_RETURN(SatResult sr, CheckSat(factory, residual));
    if (!sr.satisfiable) return false;
    if (pos >= w.prefix.size() && (pos - w.prefix.size()) % w.loop.size() == 0) {
      if (!seen_at_loop_entry.insert(residual).second) return true;  // cycled
    }
    TIC_ASSIGN_OR_RETURN(residual, Progress(factory, residual, w.StateAt(pos)));
    ++pos;
  }
  return Status::ResourceExhausted("residual sequence did not cycle");
}

}  // namespace

Result<bool> BoundedSafetyCheck(Factory* factory, Formula f,
                                const std::vector<PropId>& props, size_t horizon) {
  if (props.size() > 4 || horizon > 4) {
    return Status::InvalidArgument("BoundedSafetyCheck is an oracle for tiny inputs");
  }
  StateSpace space(props);
  size_t ns = space.size();

  // Enumerate lassos (stem, loop) with |stem| <= horizon, 1 <= |loop| <= horizon.
  // f fails the (bounded) safety condition iff some lasso falsifies f while all
  // of its finite prefixes remain extendable to models of f.
  for (size_t sl = 0; sl <= horizon; ++sl) {
    for (size_t ll = 1; ll <= horizon; ++ll) {
      size_t total = sl + ll;
      std::vector<size_t> idx(total, 0);
      while (true) {
        UltimatelyPeriodicWord w;
        for (size_t i = 0; i < sl; ++i) w.prefix.push_back(space.State(idx[i]));
        for (size_t i = sl; i < total; ++i) w.loop.push_back(space.State(idx[i]));

        TIC_ASSIGN_OR_RETURN(bool holds, Evaluate(w, f, 0));
        if (!holds) {
          TIC_ASSIGN_OR_RETURN(bool extendable, AllPrefixesExtendable(factory, f, w));
          if (extendable) return false;  // counterexample to safety
        }

        size_t d = 0;
        while (d < total && ++idx[d] == ns) {
          idx[d] = 0;
          ++d;
        }
        if (d == total) break;
      }
    }
  }
  return true;
}

}  // namespace ptl
}  // namespace tic
