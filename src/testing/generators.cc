#include "testing/generators.h"

#include <functional>
#include <string>

namespace tic {
namespace testing {

std::vector<ptl::Formula> PtlAtoms(ptl::Factory* fac, size_t n) {
  std::vector<ptl::Formula> atoms;
  atoms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    atoms.push_back(
        fac->Atom(fac->vocabulary()->Intern(std::string(1, static_cast<char>('a' + i)))));
  }
  return atoms;
}

ptl::Formula GeneratePtlFormula(ptl::Factory* fac, Entropy* ent,
                                const std::vector<ptl::Formula>& atoms,
                                int depth) {
  // Draws in statement order, the right operand first (CaseBuilder::Binary).
  auto sub = [&] { return GeneratePtlFormula(fac, ent, atoms, depth - 1); };
  auto binary = [&](ptl::Formula (ptl::Factory::*op)(ptl::Formula, ptl::Formula)) {
    ptl::Formula rhs = sub();
    ptl::Formula lhs = sub();
    return (fac->*op)(lhs, rhs);
  };
  switch (ent->Pick(0, depth <= 0 ? 1 : 9)) {
    case 0:
      return atoms[ent->Below(static_cast<uint32_t>(atoms.size()))];
    case 1:
      return fac->Not(atoms[ent->Below(static_cast<uint32_t>(atoms.size()))]);
    case 2:
      return fac->Not(sub());
    case 3:
      return binary(&ptl::Factory::And);
    case 4:
      return binary(&ptl::Factory::Or);
    case 5:
      return fac->Next(sub());
    case 6:
      return binary(&ptl::Factory::Until);
    case 7:
      return binary(&ptl::Factory::Release);
    case 8:
      return fac->Eventually(sub());
    default:
      return fac->Always(sub());
  }
}

CaseBuilder::CaseBuilder(size_t num_preds) {
  auto v = std::make_shared<Vocabulary>();
  preds_.reserve(num_preds);
  for (size_t i = 0; i < num_preds; ++i) {
    preds_.push_back(*v->AddPredicate("P" + std::to_string(i), 1));
  }
  vocab_ = v;
  factory_ = std::make_shared<fotl::FormulaFactory>(vocab_);
}

fotl::Term CaseBuilder::Var(size_t i) {
  return fotl::Term::Var(factory_->InternVar(i == 0 ? "x" : "y"));
}

fotl::Formula CaseBuilder::Atom(Entropy* ent, size_t num_vars) {
  uint32_t var = ent->Below(static_cast<uint32_t>(num_vars));
  uint32_t pred = ent->Below(static_cast<uint32_t>(preds_.size()));
  return *factory_->Atom(preds_[pred], {Var(var)});
}

fotl::Formula CaseBuilder::Binary(
    fotl::Formula (fotl::FormulaFactory::*op)(fotl::Formula, fotl::Formula),
    const std::function<fotl::Formula()>& draw) {
  fotl::Formula rhs = draw();
  fotl::Formula lhs = draw();
  return (factory_.get()->*op)(lhs, rhs);
}

fotl::Formula CaseBuilder::Lit(Entropy* ent, size_t num_vars) {
  fotl::Formula a = Atom(ent, num_vars);
  return ent->Below(2) == 0 ? a : factory_->Not(a);
}

fotl::Formula CaseBuilder::LitConj(Entropy* ent, size_t num_vars) {
  fotl::Formula a = Lit(ent, num_vars);
  return ent->Below(2) == 0 ? a : factory_->And(a, Lit(ent, num_vars));
}

fotl::Formula CaseBuilder::GenCosafe(Entropy* ent, size_t num_vars, int depth) {
  if (depth <= 0) return Atom(ent, num_vars);
  auto sub = [&] { return GenCosafe(ent, num_vars, depth - 1); };
  switch (ent->Below(5)) {
    case 0:
      return Binary(&fotl::FormulaFactory::And, sub);
    case 1:
      return Binary(&fotl::FormulaFactory::Or, sub);
    case 2:
      return factory_->Next(sub());
    case 3:
      return Binary(&fotl::FormulaFactory::Until, sub);
    default:
      return factory_->Eventually(sub());
  }
}

fotl::Formula CaseBuilder::GenSafe(Entropy* ent, size_t num_vars, int depth) {
  if (depth <= 0) return Lit(ent, num_vars);
  auto sub = [&] { return GenSafe(ent, num_vars, depth - 1); };
  switch (ent->Below(7)) {
    case 0:
      return Lit(ent, num_vars);
    case 1:
      return Binary(&fotl::FormulaFactory::And, sub);
    case 2:
      return Binary(&fotl::FormulaFactory::Or, sub);
    case 3:
      return factory_->Next(sub());
    case 4:
      return factory_->Always(sub());
    case 5: {
      fotl::Formula consequent = sub();
      return factory_->Implies(LitConj(ent, num_vars), consequent);
    }
    default:
      return factory_->Not(GenCosafe(ent, num_vars, depth - 1));
  }
}

fotl::Formula CaseBuilder::GenCoRelease(Entropy* ent, size_t num_vars,
                                        int depth) {
  if (depth <= 0) return Atom(ent, num_vars);
  auto sub = [&] { return GenCoRelease(ent, num_vars, depth - 1); };
  switch (ent->Below(4)) {
    case 0:
      return Binary(&fotl::FormulaFactory::And, sub);
    case 1:
      return Binary(&fotl::FormulaFactory::Or, sub);
    case 2:
      return Binary(&fotl::FormulaFactory::Until, sub);
    default:
      return factory_->Eventually(sub());
  }
}

fotl::Formula CaseBuilder::GenRelease(Entropy* ent, size_t num_vars, int depth) {
  if (depth <= 0) return Lit(ent, num_vars);
  auto sub = [&] { return GenRelease(ent, num_vars, depth - 1); };
  switch (ent->Below(6)) {
    case 0:
      return Lit(ent, num_vars);
    case 1:
      return Binary(&fotl::FormulaFactory::And, sub);
    case 2:
      return Binary(&fotl::FormulaFactory::Or, sub);
    case 3:
      return factory_->Always(sub());
    case 4: {
      fotl::Formula consequent = sub();
      return factory_->Implies(LitConj(ent, num_vars), consequent);
    }
    default:
      return factory_->Not(GenCoRelease(ent, num_vars, depth - 1));
  }
}

fotl::Formula CaseBuilder::Quantify(fotl::Formula matrix, size_t num_vars) {
  fotl::Formula phi = matrix;
  for (size_t i = num_vars; i-- > 0;) {
    phi = factory_->Forall(factory_->InternVar(i == 0 ? "x" : "y"), phi);
  }
  return phi;
}

FotlCase CaseBuilder::Finish(fotl::Formula sentence, size_t num_vars,
                             std::vector<Transaction> stream) const {
  FotlCase c;
  c.vocab = vocab_;
  c.factory = factory_;
  c.preds = preds_;
  c.num_vars = num_vars;
  c.sentence = sentence;
  c.stream = std::move(stream);
  return c;
}

Transaction ChurnTxn(Entropy* ent, const std::vector<PredicateId>& preds,
                     const std::vector<Value>& universe) {
  Transaction txn;
  for (PredicateId p : preds) {
    for (Value v : universe) {
      uint32_t r = ent->Below(4);
      if (r == 0) txn.push_back(UpdateOp::Insert(p, {v}));
      if (r == 1) txn.push_back(UpdateOp::Delete(p, {v}));
    }
  }
  return txn;
}

Transaction SingleOpTxn(Entropy* ent, const std::vector<PredicateId>& preds,
                        const std::vector<Value>& universe) {
  Transaction txn;
  Value e = universe[ent->Below(static_cast<uint32_t>(universe.size()))];
  uint32_t r = ent->Below(static_cast<uint32_t>(2 * preds.size()));
  PredicateId p = preds[r % preds.size()];
  if (r < preds.size()) {
    txn.push_back(UpdateOp::Insert(p, {e}));
  } else {
    txn.push_back(UpdateOp::Delete(p, {e}));
  }
  return txn;
}

void AppendRandomState(Entropy* ent, History* history,
                       const std::vector<PredicateId>& preds,
                       const std::vector<Value>& universe) {
  DatabaseState* s = history->AppendEmptyState();
  for (PredicateId p : preds) {
    for (Value v : universe) {
      if (ent->Below(2)) (void)s->Insert(p, {v});
    }
  }
}

FotlCase GenerateSafetyCase(Entropy* ent, const SafetyCaseOptions& options) {
  // Draw order mirrors the historical family A loop body exactly: predicate
  // count, variable count, matrix depth, then the stream.
  size_t num_preds =
      options.min_preds +
      ent->Below(static_cast<uint32_t>(options.max_preds - options.min_preds + 1));
  CaseBuilder builder(num_preds);
  size_t num_vars =
      options.min_vars +
      ent->Below(static_cast<uint32_t>(options.max_vars - options.min_vars + 1));
  int depth = options.min_depth +
              static_cast<int>(ent->Below(
                  static_cast<uint32_t>(options.max_depth - options.min_depth + 1)));
  fotl::Formula matrix = builder.GenSafe(ent, num_vars, depth);
  if (options.next_anchor) {
    // x != y -> ((Pi(y) & Pj(x)) -> X Pk(x)), drawn one atom per statement
    // (argument evaluation order is unspecified).
    fotl::FormulaFactory& fac = *builder.factory();
    fotl::Term v[2] = {builder.Var(0), builder.Var(1)};
    auto atom = [&](size_t var) {
      uint32_t p = ent->Below(static_cast<uint32_t>(num_preds));
      return *fac.Atom(builder.preds()[p], {v[var]});
    };
    fotl::Formula pi_y = atom(1);
    fotl::Formula pj_x = atom(0);
    fotl::Formula pk_x = atom(0);
    fotl::Formula trigger = fac.Implies(fac.And(pi_y, pj_x), fac.Next(pk_x));
    matrix = fac.And(matrix,
                     fac.Implies(fac.Not(fac.Equals(v[0], v[1])), trigger));
  }
  fotl::Formula phi = builder.Quantify(builder.factory()->Always(matrix), num_vars);
  size_t len =
      options.min_stream +
      ent->Below(static_cast<uint32_t>(options.max_stream - options.min_stream + 1));
  std::vector<Transaction> stream;
  stream.reserve(len);
  for (size_t t = 0; t < len; ++t) {
    std::vector<Value> universe = options.universe;
    if (options.fresh_element >= 0 && t >= len / 2) {
      universe.push_back(options.fresh_element);
    }
    stream.push_back(ChurnTxn(ent, builder.preds(), universe));
  }
  return builder.Finish(phi, num_vars, std::move(stream));
}

FotlCase GenerateReleaseCase(Entropy* ent) {
  CaseBuilder builder(2 + ent->Below(2));
  const size_t num_vars = 2;
  fotl::Formula matrix =
      builder.GenRelease(ent, num_vars, 2 + static_cast<int>(ent->Below(3)));
  fotl::Formula phi = builder.Quantify(builder.factory()->Always(matrix), num_vars);
  size_t len = 10 + ent->Below(7);
  std::vector<Transaction> stream;
  stream.reserve(len);
  for (size_t t = 0; t < len; ++t) {
    std::vector<Value> universe = {1, 2, 3};
    if (t >= len / 3) universe.push_back(4);
    if (t >= 2 * len / 3) universe.push_back(5);
    stream.push_back(ChurnTxn(ent, builder.preds(), universe));
  }
  return builder.Finish(phi, num_vars, std::move(stream));
}

QtcnCase GenerateQtcnCase(Entropy* ent, const QtcnCaseOptions& options) {
  QtcnCase out;
  out.num_events =
      options.min_events +
      ent->Below(static_cast<uint32_t>(options.max_events - options.min_events + 1));
  CaseBuilder builder(out.num_events);
  fotl::FormulaFactory& fac = *builder.factory();
  auto event = [&](uint32_t i) {
    return *fac.Atom(builder.preds()[i], {builder.Var(0)});
  };
  size_t num_cons = options.min_constraints +
                    ent->Below(static_cast<uint32_t>(options.max_constraints -
                                                     options.min_constraints + 1));
  fotl::Formula matrix = nullptr;
  for (size_t k = 0; k < num_cons; ++k) {
    uint32_t a = ent->Below(static_cast<uint32_t>(out.num_events));
    uint32_t b = ent->Below(static_cast<uint32_t>(out.num_events));
    if (a == b) b = (b + 1) % static_cast<uint32_t>(out.num_events);
    bool strict = ent->Below(2) == 1;
    out.constraints.push_back(QtcnConstraint{a, b, strict});
    fotl::Formula ea = event(a);
    fotl::Formula eb = event(b);
    fotl::Formula unit =
        strict
            // (Ea & !Eb) R !Eb  ==  !( !(Ea & !Eb) U Eb )
            ? fac.Not(fac.Until(fac.Not(fac.And(ea, fac.Not(eb))), eb))
            // Ea R (!Eb | Ea)   ==  !( !Ea U (Eb & !Ea) )
            : fac.Not(fac.Until(fac.Not(ea), fac.And(eb, fac.Not(ea))));
    matrix = matrix == nullptr ? unit : fac.And(matrix, unit);
  }
  fotl::Formula phi = builder.Quantify(matrix, /*num_vars=*/1);
  size_t len =
      options.min_stream +
      ent->Below(static_cast<uint32_t>(options.max_stream - options.min_stream + 1));
  std::vector<Transaction> stream;
  stream.reserve(len);
  for (size_t t = 0; t < len; ++t) {
    std::vector<Value> universe = options.universe;
    if (options.fresh_element >= 0 && t >= len / 2) {
      universe.push_back(options.fresh_element);
    }
    // Sparse arrival stream (with occasional retractions): per element, one
    // event fires with probability 1/2, an earlier one retracts with 1/4 —
    // enough order variety that both consistent and violating occurrence
    // schedules appear.
    Transaction txn;
    for (Value v : universe) {
      uint32_t r = ent->Below(4);
      uint32_t e = ent->Below(static_cast<uint32_t>(out.num_events));
      if (r < 2) txn.push_back(UpdateOp::Insert(builder.preds()[e], {v}));
      if (r == 2) txn.push_back(UpdateOp::Delete(builder.preds()[e], {v}));
    }
    stream.push_back(std::move(txn));
  }
  out.fotl = builder.Finish(phi, /*num_vars=*/1, std::move(stream));
  return out;
}

FotlCase GenerateTriggerCase(Entropy* ent) {
  CaseBuilder builder(2);
  int depth = 1 + static_cast<int>(ent->Below(2));
  fotl::Formula condition = builder.GenCosafe(ent, /*num_vars=*/1, depth);
  size_t len = 3 + ent->Below(3);
  std::vector<Transaction> stream;
  stream.reserve(len);
  for (size_t t = 0; t < len; ++t) {
    stream.push_back(ChurnTxn(ent, builder.preds(), {1, 2}));
  }
  return builder.Finish(condition, /*num_vars=*/1, std::move(stream));
}

}  // namespace testing
}  // namespace tic
