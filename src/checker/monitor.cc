#include "checker/monitor.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "common/flat/gather.h"
#include "common/hash.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "ptl/safety.h"
#include "ptl/tableau.h"
#include "ptl/verdict_cache.h"

namespace tic {
namespace checker {

namespace {

// Translates the first-order matrix to PTL: `leaf` maps each atom and
// equality, the connectives carry over one to one. An explicit-stack
// post-order walk (a deep user matrix must not overflow the native call
// stack): frames are pushed twice, first to queue unresolved children, then
// to combine their memoized translations. Leaves are visited left to right,
// so letters are minted in first-visit order.
template <typename Leaf>
Result<ptl::Formula> TranslateMatrix(ptl::Factory* pf, fotl::Formula matrix,
                                     Leaf&& leaf) {
  using fotl::NodeKind;
  std::unordered_map<fotl::Formula, ptl::Formula> memo;
  struct Frame {
    fotl::Formula f;
    bool expanded;
  };
  std::vector<Frame> stack{{matrix, false}};
  while (!stack.empty()) {
    Frame fr = stack.back();
    stack.pop_back();
    if (memo.count(fr.f) > 0) continue;
    NodeKind k = fr.f->kind();
    if (k == NodeKind::kTrue || k == NodeKind::kFalse) {
      memo.emplace(fr.f, k == NodeKind::kTrue ? pf->True() : pf->False());
      continue;
    }
    if (k == NodeKind::kEquals || k == NodeKind::kAtom) {
      TIC_ASSIGN_OR_RETURN(ptl::Formula out, leaf(fr.f));
      memo.emplace(fr.f, out);
      continue;
    }
    fotl::Formula c0 = fr.f->child(0);
    fotl::Formula c1 = fr.f->child(1);
    if (!fr.expanded) {
      stack.push_back({fr.f, true});
      // Reverse push so the left child is visited (and numbered) first.
      if (c1 != nullptr && memo.count(c1) == 0) stack.push_back({c1, false});
      if (c0 != nullptr && memo.count(c0) == 0) stack.push_back({c0, false});
      continue;
    }
    ptl::Formula a = c0 != nullptr ? memo.at(c0) : nullptr;
    ptl::Formula b = c1 != nullptr ? memo.at(c1) : nullptr;
    ptl::Formula out;
    switch (k) {
      case NodeKind::kNot:
        out = pf->Not(a);
        break;
      case NodeKind::kNext:
        out = pf->Next(a);
        break;
      case NodeKind::kEventually:
        out = pf->Eventually(a);
        break;
      case NodeKind::kAlways:
        out = pf->Always(a);
        break;
      case NodeKind::kAnd:
        out = pf->And(a, b);
        break;
      case NodeKind::kOr:
        out = pf->Or(a, b);
        break;
      case NodeKind::kImplies:
        out = pf->Implies(a, b);
        break;
      case NodeKind::kUntil:
        out = pf->Until(a, b);
        break;
      default:
        return Status::Internal("unexpected connective in universal matrix");
    }
    memo.emplace(fr.f, out);
  }
  return memo.at(matrix);
}

// Calls `visit` on every k-tuple over `domain`, first position fastest: the
// order instances and compaction patterns are numbered in. k = 0 visits the
// empty tuple once. \pre domain is non-empty when k > 0.
template <typename Visit>
Status ForEachAssignment(const std::vector<GroundElem>& domain, size_t k,
                         Visit&& visit) {
  std::vector<size_t> idx(k, 0);
  std::vector<GroundElem> assignment(k);
  for (size_t i = 0; i < k; ++i) assignment[i] = domain[0];
  while (true) {
    TIC_RETURN_NOT_OK(visit(assignment));
    size_t d = 0;
    while (d < k && ++idx[d] == domain.size()) {
      idx[d] = 0;
      assignment[d] = domain[0];
      ++d;
    }
    if (d == k) return Status::OK();
    assignment[d] = domain[idx[d]];
  }
}

}  // namespace

size_t Monitor::AssignmentHash::operator()(const std::vector<GroundElem>& a) const {
  // Mix the arity instead of seeding with it raw: assignments all share the
  // same small size, and a raw seed makes the low bits collide heavily (the
  // LetterKeyHash predicate-id fix, same family).
  size_t seed = 0;
  HashCombine(&seed, a.size());
  for (const GroundElem& e : a) HashCombine(&seed, std::hash<Value>{}(e.code));
  return seed;
}

bool Monitor::AssignmentEq::operator()(const std::vector<GroundElem>& a,
                                       const std::vector<GroundElem>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

size_t Monitor::LetterKeyHash::operator()(const LetterKey& k) const {
  // Mix the predicate id instead of using it as a raw seed: small consecutive
  // ids otherwise collide heavily after combining codes.
  size_t seed = 0;
  HashCombine(&seed, static_cast<size_t>(k.pred));
  for (Value v : k.codes) HashCombine(&seed, std::hash<Value>{}(v));
  return seed;
}

Monitor::Monitor(std::shared_ptr<fotl::FormulaFactory> fotl_factory,
                 fotl::Formula phi, std::vector<Value> constant_interp,
                 CheckOptions options, MonitorMode mode)
    : ffac_(std::move(fotl_factory)),
      phi_(phi),
      options_(options),
      mode_(mode),
      reads_pred_(ffac_->vocabulary()->num_predicates(), 0),
      state_(ffac_->vocabulary()),
      constant_interp_(std::move(constant_interp)),
      prop_vocab_(std::make_shared<ptl::PropVocabulary>()),
      prop_factory_(std::make_shared<ptl::Factory>(prop_vocab_)) {
  fotl::StripUniversalPrefix(phi_, &external_, &matrix_);
}

Result<std::unique_ptr<Monitor>> Monitor::Create(
    std::shared_ptr<fotl::FormulaFactory> fotl_factory, fotl::Formula phi,
    std::vector<Value> constant_interp, CheckOptions options, MonitorMode mode) {
  TIC_RETURN_NOT_OK(
      CheckConstantInterpretation(*fotl_factory->vocabulary(), constant_interp));
  fotl::Classification c = fotl::Classify(phi);
  // Past route (Proposition 2.1): a closed `G A` with A a past formula and no
  // universal prefix runs entirely on the history-less past evaluator — no
  // grounding, no safety skeleton, no automaton. Universal sentences keep the
  // Theorem 4.2 machinery: grounded potential satisfaction is what the
  // paper's procedure buys.
  if (mode == MonitorMode::kEager && c.closed && c.is_always_past &&
      !c.universal) {
    TIC_ASSIGN_OR_RETURN(std::unique_ptr<past::PastMonitor> lowered,
                         past::PastMonitor::Create(fotl_factory, phi,
                                                   constant_interp));
    std::unique_ptr<Monitor> m(new Monitor(std::move(fotl_factory), phi,
                                           std::move(constant_interp), options,
                                           mode));
    m->backend_ = MonitorBackend::kPastStateless;
    m->past_ = std::move(lowered);
#ifdef TIC_TELEMETRY_ENABLED
    telemetry::EnsureThreadRing();
#endif
    size_t tables = m->past_->num_tables();
    TIC_RECORD(kRouteDecision, 2, 1, tables);
    (void)tables;
    return m;
  }
  if (!c.universal) {
    return Status::NotSupported(
        "Monitor requires a universal sentence (forall* tense(Sigma_0))");
  }
  if (!c.closed) {
    return Status::InvalidArgument("Monitor requires a sentence (no free variables)");
  }
  std::unique_ptr<Monitor> m(new Monitor(
      std::move(fotl_factory), phi, std::move(constant_interp), options, mode));
  // Default the shared verdict cache and worker pool: callers inject their own
  // instances through CheckOptions to share them across monitors and trigger
  // managers.
  if (m->options_.tableau.verdict_cache == nullptr) {
    m->options_.tableau.verdict_cache = std::make_shared<ptl::VerdictCache>();
  }
  // Resolve the effective backend: the automaton run replaces exact eager
  // monitoring only. kLazy's weak verdicts are progression-specific, so that
  // mode keeps kProgression.
  m->backend_ = m->options_.backend;
  if (mode != MonitorMode::kEager) m->backend_ = MonitorBackend::kProgression;
  // Cohort slots compile per-instance automata through the
  // renaming-invariant cache so symmetric instances share one transition
  // system; default a private cache when the caller didn't inject one.
  if (m->backend_ == MonitorBackend::kAutomaton &&
      m->options_.automaton_cache == nullptr) {
    m->options_.automaton_cache = std::make_shared<ptl::AutomatonCache>();
  }
  if (m->options_.thread_pool == nullptr && m->options_.threads > 1) {
    m->options_.thread_pool = std::make_shared<ThreadPool>(m->options_.threads - 1);
  }
  if (m->options_.trace_sink != nullptr) {
    telemetry::SetTraceSink(m->options_.trace_sink);
    telemetry::SetEnabled(true);
  }
#ifdef TIC_TELEMETRY_ENABLED
  // Pre-create the calling thread's flight-recorder ring: the first
  // TIC_RECORD must not allocate inside a measured (zero-alloc gate) window.
  telemetry::EnsureThreadRing();
  if (m->options_.watchdog_ms > 0) {
    telemetry::StallWatchdog::Options wo;
    wo.deadline_ms = m->options_.watchdog_ms;
    wo.dump_path = m->options_.watchdog_dump_path;
    m->watchdog_ = std::make_unique<telemetry::StallWatchdog>(std::move(wo));
  }
#endif

  // Safety gate: check the tense skeleton (each first-order atom abstracted to
  // one letter — safety depends only on the temporal structure).
  if (options.require_safety) {
    // Each distinct atom gets one letter, numbered in first-visit order.
    ptl::Factory* pf = m->prop_factory_.get();
    size_t atom_count = 0;
    TIC_ASSIGN_OR_RETURN(
        ptl::Formula skeleton,
        TranslateMatrix(pf, m->matrix_, [&](fotl::Formula) -> Result<ptl::Formula> {
          return pf->Atom(
              m->prop_vocab_->Intern("skel#" + std::to_string(atom_count++)));
        }));
    if (!ptl::IsSyntacticallySafe(pf, skeleton)) {
      return Status::NotSupported(
          "constraint's tense skeleton is not syntactically safe; the monitor "
          "implements Section 4's algorithm for safety sentences only");
    }
  }

  // Instances over the initial M (constants only, plus the z's). Grounding
  // walks the whole matrix, so the first one marks every predicate it reads.
  std::vector<Value>& relevant = m->known_relevant_;
  relevant = m->constant_interp_;
  std::sort(relevant.begin(), relevant.end());
  relevant.erase(std::unique(relevant.begin(), relevant.end()), relevant.end());
  std::vector<GroundElem> domain;
  for (Value v : relevant) domain.push_back(GroundElem::Relevant(v));
  for (size_t i = 0; i < m->external_.size(); ++i) domain.push_back(GroundElem::Z(i));
  if (domain.empty()) domain.push_back(GroundElem::Z(0));

  TIC_RETURN_NOT_OK(ForEachAssignment(
      domain, m->external_.size(),
      [&](const std::vector<GroundElem>& assignment) -> Status {
        TIC_ASSIGN_OR_RETURN(ptl::Formula residual, m->GroundMatrix(assignment));
        m->instances_.push_back(Instance{assignment, residual});
        return Status::OK();
      }));
  return m;
}

ptl::PropId Monitor::Letter(PredicateId pred, const std::vector<Value>& codes) {
  // Probe with a reusable key (vector assignment reuses its capacity): the
  // hit path — every tuple after a letter's first sight — is allocation-free.
  letter_probe_.pred = pred;
  letter_probe_.codes.assign(codes.begin(), codes.end());
  if (const ptl::PropId* hit = letters_.Get(letter_probe_)) return *hit;
  std::string name = ffac_->vocabulary()->predicate(pred).name + "(";
  for (size_t i = 0; i < codes.size(); ++i) {
    if (i > 0) name += ",";
    name += GroundElem{codes[i]}.ToString();
  }
  name += ")";
  ptl::PropId id = prop_vocab_->Intern(name);
  letters_.Emplace(LetterKey{pred, codes}, id);
  uint32_t log_index = static_cast<uint32_t>(letter_log_.size());
  letter_log_.push_back(LetterEntry{LetterKey{pred, codes}, id});
  // Index the letter under each distinct code it mentions (log indices, not
  // entry pointers — flat-table entries relocate on insert), so renaming can
  // find letters by touched code.
  const std::vector<Value>& cs = letter_log_.back().key.codes;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (std::find(cs.begin(), cs.begin() + i, cs[i]) != cs.begin() + i) continue;
    letters_by_code_[cs[i]].push_back(log_index);
  }
  return id;
}

Result<ptl::Formula> Monitor::GroundMatrix(const std::vector<GroundElem>& assignment,
                                           size_t keep_z_from) {
  // Simplified-mode grounding (equalities folded, z-atoms false); see
  // GroundingMode::kSimplified.
  std::unordered_map<fotl::VarId, GroundElem> env;
  for (size_t i = 0; i < external_.size(); ++i) env[external_[i]] = assignment[i];

  ptl::Factory* pf = prop_factory_.get();
  auto resolve = [&](const fotl::Term& t) -> Result<GroundElem> {
    if (t.is_constant()) {
      return GroundElem::Relevant(constant_interp_[t.id]);
    }
    auto it = env.find(t.id);
    if (it == env.end()) return Status::Internal("unbound variable in matrix");
    return it->second;
  };
  std::vector<Value> codes;  // scratch reused across atoms
  return TranslateMatrix(pf, matrix_, [&](fotl::Formula f) -> Result<ptl::Formula> {
    if (f->kind() == fotl::NodeKind::kEquals) {
      TIC_ASSIGN_OR_RETURN(GroundElem a, resolve(f->terms()[0]));
      TIC_ASSIGN_OR_RETURN(GroundElem b, resolve(f->terms()[1]));
      return a == b ? pf->True() : pf->False();
    }
    if (ffac_->vocabulary()->predicate(f->predicate()).builtin != Builtin::kNone) {
      return Status::NotSupported("builtins unsupported by the monitor");
    }
    reads_pred_[f->predicate()] = 1;
    codes.clear();
    bool has_folded_z = false;
    for (const fotl::Term& t : f->terms()) {
      TIC_ASSIGN_OR_RETURN(GroundElem e, resolve(t));
      // Stand-ins at or past keep_z_from survive as letters (compaction
      // patterns); below it they fold per Axiom_D (kSimplified grounding).
      has_folded_z = has_folded_z || (e.is_z() && e.z_index() < keep_z_from);
      codes.push_back(e.code);
    }
    return has_folded_z ? pf->False() : pf->Atom(Letter(f->predicate(), codes));
  });
}

Result<ptl::Formula> Monitor::ProgressThroughWord(ptl::Formula residual) {
  for (const WordEntry& e : word_) {
    if (residual->kind() == ptl::Kind::kFalse) break;
    for (uint64_t r = 0; r < e.repeat; ++r) {
      TIC_ASSIGN_OR_RETURN(ptl::Formula next,
                           ptl::Progress(prop_factory_.get(), residual, e.w));
      // Hash-consed fixpoint: progression is deterministic, so once the
      // residual stops changing under this run's letter, the remaining
      // repetitions are no-ops — catch-up costs one rewrite per RUN.
      if (next == residual) break;
      residual = next;
      if (residual->kind() == ptl::Kind::kFalse) break;
    }
  }
  return residual;
}

Status Monitor::CreateFreshInstances(const std::vector<Value>& fresh) {
  TIC_SPAN("monitor.fresh_instances");
  std::vector<Value> merged;
  std::merge(known_relevant_.begin(), known_relevant_.end(), fresh.begin(),
             fresh.end(), std::back_inserter(merged));
  const size_t k = external_.size();
  if (k > 0) {
    std::vector<GroundElem> domain;
    for (Value v : merged) domain.push_back(GroundElem::Relevant(v));
    for (size_t i = 0; i < k; ++i) domain.push_back(GroundElem::Z(i));
    std::unordered_set<Value> fresh_set(fresh.begin(), fresh.end());
    TIC_RETURN_NOT_OK(ForEachAssignment(
        domain, k, [&](const std::vector<GroundElem>& assignment) -> Status {
          bool touches_fresh = false;
          for (const GroundElem& e : assignment) {
            if (!e.is_z() && fresh_set.count(e.value()) > 0) {
              touches_fresh = true;
              break;
            }
          }
          if (!touches_fresh) return Status::OK();
          TIC_ASSIGN_OR_RETURN(ptl::Formula basis,
                               compacted_ ? CompactBaseResidual(assignment)
                                          : GroundMatrix(assignment));
          instances_.push_back(Instance{assignment, basis});
          return Status::OK();
        }));
  }
  known_relevant_ = std::move(merged);
  return Status::OK();
}

ptl::Formula Monitor::RenameResidualCodes(
    ptl::Formula f, const std::unordered_map<Value, Value>& code_map) {
  // Letter renaming: any letter mentioning a mapped source code becomes the
  // letter with the destination code substituted. The per-code index hands us
  // exactly the letters touched — no snapshot of the whole letters_ map.
  // Collect before renaming: Letter() inserts grow letters_by_code_, so the
  // bucket vectors must not be iterated while new letters are minted.
  std::vector<uint32_t> touched;  // letter_log_ indices
  std::unordered_set<ptl::PropId> seen;
  for (const auto& [src, dst] : code_map) {
    (void)dst;
    const std::vector<uint32_t>* bucket = letters_by_code_.Get(src);
    if (bucket == nullptr) continue;
    for (uint32_t idx : *bucket) {
      if (seen.insert(letter_log_[idx].id).second) touched.push_back(idx);
    }
  }
  std::unordered_map<ptl::PropId, ptl::PropId> letter_map;
  std::vector<Value> renamed;  // scratch
  for (uint32_t idx : touched) {
    // Copy before the Letter() call below: minting a renamed letter appends
    // to letter_log_, which may relocate the entry.
    LetterEntry entry = letter_log_[idx];
    renamed = entry.key.codes;
    for (Value& c : renamed) {
      auto it = code_map.find(c);
      if (it != code_map.end()) c = it->second;
    }
    letter_map.emplace(entry.id, Letter(entry.key.pred, renamed));
  }
  return RenameLetters(f, letter_map);
}

ptl::Formula Monitor::RenameLetters(
    ptl::Formula f, const std::unordered_map<ptl::PropId, ptl::PropId>& map) {
  ptl::Factory* pf = prop_factory_.get();
  std::unordered_map<ptl::Formula, ptl::Formula> memo;
  std::function<ptl::Formula(ptl::Formula)> go =
      [&](ptl::Formula g) -> ptl::Formula {
    auto hit = memo.find(g);
    if (hit != memo.end()) return hit->second;
    ptl::Formula out = g;
    switch (g->kind()) {
      case ptl::Kind::kTrue:
      case ptl::Kind::kFalse:
        break;
      case ptl::Kind::kAtom: {
        auto it = map.find(g->atom());
        if (it != map.end()) out = pf->Atom(it->second);
        break;
      }
      case ptl::Kind::kNot:
        out = pf->Not(go(g->child(0)));
        break;
      case ptl::Kind::kNext:
        out = pf->Next(go(g->child(0)));
        break;
      case ptl::Kind::kEventually:
        out = pf->Eventually(go(g->child(0)));
        break;
      case ptl::Kind::kAlways:
        out = pf->Always(go(g->child(0)));
        break;
      case ptl::Kind::kAnd:
        out = pf->And(go(g->lhs()), go(g->rhs()));
        break;
      case ptl::Kind::kOr:
        out = pf->Or(go(g->lhs()), go(g->rhs()));
        break;
      case ptl::Kind::kImplies:
        out = pf->Implies(go(g->lhs()), go(g->rhs()));
        break;
      case ptl::Kind::kUntil:
        out = pf->Until(go(g->lhs()), go(g->rhs()));
        break;
      case ptl::Kind::kRelease:
        out = pf->Release(go(g->lhs()), go(g->rhs()));
        break;
    }
    memo.emplace(g, out);
    return out;
  };
  return go(f);
}

Result<ptl::Formula> Monitor::CompactBaseResidual(
    const std::vector<GroundElem>& assignment) {
  // Canonicalize: every element unknown at the checkpoint — a concrete
  // element outside compact_relevant_, or a stand-in with index >= k — is
  // renumbered onto the kept stand-ins Z(k), Z(k+1), ... in first-occurrence
  // order, matching the canonical form BuildCompactPatterns enumerated. Over
  // the folded prefix such an element was indistinguishable from its kept
  // stand-in (both letter-false throughout), so the pattern's checkpoint
  // residual with the stand-in letters renamed back IS this assignment's
  // checkpoint residual.
  const size_t k = external_.size();
  std::vector<GroundElem> pattern = assignment;
  std::unordered_map<Value, GroundElem> unknown_to_z;  // original code -> kept z
  size_t next_z = k;
  for (GroundElem& e : pattern) {
    if (e.is_z() && e.z_index() < k) continue;  // real stand-in: stays
    if (!e.is_z() && std::binary_search(compact_relevant_.begin(),
                                        compact_relevant_.end(), e.value())) {
      continue;  // relevant at the fold: stays
    }
    auto it = unknown_to_z.find(e.code);
    if (it != unknown_to_z.end()) {
      e = it->second;
      continue;
    }
    GroundElem z = GroundElem::Z(next_z++);
    unknown_to_z.emplace(e.code, z);
    e = z;
  }
  const size_t* pattern_idx = compact_pattern_index_.Get(pattern);
  if (pattern_idx == nullptr) {
    return Status::Internal("compaction catch-up: pattern residual missing");
  }
  std::unordered_map<Value, Value> code_map;  // kept z code -> original code
  for (const auto& [code, z] : unknown_to_z) code_map.emplace(z.code, code);
  return RenameResidualCodes(compact_patterns_[*pattern_idx].residual, code_map);
}

Status Monitor::BuildCompactPatterns(std::vector<CompactPattern>* patterns,
                                     PatternIndex* index) {
  const size_t k = external_.size();
  // Domain: everything relevant now, the real stand-ins, and one kept
  // stand-in per variable position (k of them saturate any assignment). A
  // closed matrix (k = 0) has no fresh-element arrivals, so no patterns.
  std::vector<GroundElem> domain;
  for (Value v : known_relevant_) domain.push_back(GroundElem::Relevant(v));
  for (size_t i = 0; i < 2 * k; ++i) domain.push_back(GroundElem::Z(i));
  double total = 1;
  for (size_t i = 0; i < k; ++i) total *= static_cast<double>(domain.size());
  if (total > static_cast<double>(kMaxCompactEnumeration)) {
    return Status::ResourceExhausted(
        "Compact: pattern enumeration over " + std::to_string(domain.size()) +
        "^" + std::to_string(k) + " assignments exceeds the cap");
  }

  return ForEachAssignment(
      domain, k, [&](const std::vector<GroundElem>& assignment) -> Status {
        // Keep only canonical assignments with at least one kept stand-in:
        // kept indices must appear in first-occurrence order starting at k,
        // so each renaming class is enumerated (and stored) exactly once.
        size_t expected = k;
        for (const GroundElem& e : assignment) {
          if (!e.is_z() || e.z_index() < k) continue;
          if (e.z_index() > expected) return Status::OK();
          if (e.z_index() == expected) ++expected;
        }
        if (expected == k) return Status::OK();
        // Basis at the last checkpoint (or t=0 on the first compaction),
        // then the stored word brings it to the new checkpoint. The kept
        // stand-ins ground as live letters — GroundMatrix's keep_z_from — so
        // the residual still mentions them and renaming can instantiate
        // future arrivals.
        ptl::Formula base;
        if (compacted_) {
          TIC_ASSIGN_OR_RETURN(base, CompactBaseResidual(assignment));
        } else {
          TIC_ASSIGN_OR_RETURN(base, GroundMatrix(assignment, /*keep_z_from=*/k));
        }
        TIC_ASSIGN_OR_RETURN(ptl::Formula residual, ProgressThroughWord(base));
        index->Emplace(assignment, patterns->size());
        patterns->push_back(CompactPattern{assignment, residual});
        return Status::OK();
      });
}

Result<size_t> Monitor::RebaseMoved(std::vector<ptl::Formula>* rebased) {
  // Kept: a cohort slot back in its fold state, a point-algebra instance no
  // flip reached, an inert instance. Their engine state has their basis's
  // language, so the basis already is their formula at the new checkpoint.
  const size_t n = instances_.size();
  rebased->assign(n, nullptr);
  size_t kept = 0;
  auto keep = [&](uint32_t i) {
    (*rebased)[i] = instances_[i].residual;
    ++kept;
  };
  for (const Cohort& ch : cohorts_) {
    for (size_t s = 0; s < ch.states.size(); ++s) {
      uint32_t now = ch.uniform ? ch.states[0] : ch.states[s];
      if (now == ch.fold_states[s]) keep(ch.members[s]);
    }
  }
  for (uint32_t i = 0; i < placement_.size(); ++i) {
    if (placement_[i] == Placement::kInert ||
        (placement_[i] == Placement::kPointAlg && !pa_.MovedSinceFold(i))) {
      keep(i);
    }
  }
  // An instance on progression holds its formula now as its running
  // residual. The rest — moved slots and units, instances not placed (before
  // the first update, or after a restore until its first update) — replay
  // the word, memoized per distinct basis: symmetric instances rebase once.
  for (size_t p = 0; p < running_residuals_.size(); ++p) {
    (*rebased)[prog_members_[p]] = running_residuals_[p];
  }
  std::unordered_map<ptl::Formula, ptl::Formula> memo;
  for (size_t i = 0; i < n; ++i) {
    if ((*rebased)[i] != nullptr) continue;
    ptl::Formula basis = instances_[i].residual;
    auto it = memo.find(basis);
    if (it == memo.end()) {
      TIC_ASSIGN_OR_RETURN(ptl::Formula folded, ProgressThroughWord(basis));
      it = memo.emplace(basis, folded).first;
    }
    (*rebased)[i] = it->second;
  }
  return n - kept;
}

Status Monitor::Compact() {
  TIC_SPAN("monitor.compact");
  if (past_ != nullptr) return past_->Compact();
  // Nothing to fold: no state since the last checkpoint (or only state 0).
  if (num_states_ <= time_base_ + 1) return Status::OK();

  // Every fallible step writes into locals; the monitor changes only after
  // the last of them. A dead monitor's verdict never changes again: its
  // instances are not rebased and it needs no patterns.
  std::vector<CompactPattern> patterns;
  PatternIndex pattern_index;
  std::vector<ptl::Formula> rebased;
  size_t num_rebased = 0;
  if (!dead_) {
    TIC_RETURN_NOT_OK(BuildCompactPatterns(&patterns, &pattern_index));
    TIC_ASSIGN_OR_RETURN(num_rebased, RebaseMoved(&rebased));
  }
  compact_patterns_ = std::move(patterns);
  compact_pattern_index_ = std::move(pattern_index);
  for (size_t i = 0; i < rebased.size(); ++i) {
    instances_[i].residual = rebased[i];
  }
  compact_relevant_ = known_relevant_;
  compacted_ = true;
  time_base_ = num_states_ - 1;
  word_.clear();

  // The engines keep their state: each has the language of its instance's
  // new basis, and the empty word is consistent with both. The fold states
  // move to "now"; the running residuals, cur_letter_ and the union-find
  // (over pre-fold atoms, a superset of the rebased bases' — an extra merge
  // only costs a conjunction test) stay as they are.
  for (Cohort& ch : cohorts_) {
    for (size_t s = 0; s < ch.states.size(); ++s) {
      ch.fold_states[s] = ch.uniform ? ch.states[0] : ch.states[s];
    }
  }
  pa_.NoteFold();
  TIC_COUNTER_ADD("monitor/compactions", 1);
  TIC_RECORD(kEpochReset, time_base_, instances_.size(), num_rebased);
  (void)num_rebased;
  return Status::OK();
}

Status Monitor::ProgressAll(const ptl::PropState& w) {
  TIC_SPAN("monitor.progress");
  // Persistent partition of the running residuals into equivalence classes.
  // Progression is a pure function of the residual, so the classes stay
  // valid across updates — the steady-state path walks the class list
  // directly instead of re-hashing every instance's formula per transaction.
  // Result<T> is not default-constructible; collect values and errors apart.
  const size_t n = progress_classes_.size();
  std::vector<ptl::Formula> progressed(n, nullptr);
  std::vector<Status> errors(n);
  ptl::Factory* pf = prop_factory_.get();
  auto step = [&](size_t i) {
    TIC_SPAN("monitor.progress_class");
    Result<ptl::Formula> r = ptl::Progress(pf, progress_classes_[i].residual, w);
    if (r.ok()) {
      progressed[i] = *r;
    } else {
      errors[i] = r.status();
    }
  };
  ThreadPool* pool = options_.thread_pool.get();
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, step);
  } else {
    for (size_t i = 0; i < n; ++i) step(i);
  }
  TIC_COUNTER_ADD("monitor/residual_classes", n);
  for (const Status& s : errors) TIC_RETURN_NOT_OK(s);

  // Fan progressed residuals back out, then merge classes whose results
  // collided (distinct residuals can progress to one formula) so the
  // partition stays canonical: one class per distinct residual.
  flat::FlatMap<ptl::Formula, size_t>& merged_of = class_of_scratch_;
  merged_of.Clear();
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    ProgressClass& pc = progress_classes_[i];
    for (uint32_t m : pc.members) running_residuals_[m] = progressed[i];
    auto [e, inserted] = merged_of.Emplace(progressed[i], out);
    if (inserted) {
      if (out != i) {
        progress_classes_[out].residual = progressed[i];
        progress_classes_[out].members = std::move(pc.members);
      } else {
        pc.residual = progressed[i];
      }
      ++out;
    } else {
      std::vector<uint32_t>& dst = progress_classes_[e->second].members;
      dst.insert(dst.end(), pc.members.begin(), pc.members.end());
      pc.members.clear();
    }
  }
  progress_classes_.resize(out);
  return Status::OK();
}

Status Monitor::CatchUp() {
  if (running_residuals_.size() == prog_members_.size()) return Status::OK();
  TIC_SPAN("monitor.catch_up");
  std::vector<ptl::Formula> caught_up;
  for (size_t p = running_residuals_.size(); p < prog_members_.size(); ++p) {
    TIC_ASSIGN_OR_RETURN(ptl::Formula now,
                         ProgressThroughWord(instances_[prog_members_[p]].residual));
    caught_up.push_back(now);
  }
  // Re-partition wholesale (the caught-up residuals may join existing
  // classes), so the classes always cover exactly the running residuals.
  running_residuals_.insert(running_residuals_.end(), caught_up.begin(),
                            caught_up.end());
  progress_classes_.clear();
  flat::FlatMap<ptl::Formula, size_t>& class_of = class_of_scratch_;
  class_of.Clear();
  for (size_t p = 0; p < running_residuals_.size(); ++p) {
    auto [e, inserted] =
        class_of.Emplace(running_residuals_[p], progress_classes_.size());
    if (inserted) {
      progress_classes_.push_back(ProgressClass{running_residuals_[p], {}});
    }
    progress_classes_[e->second].members.push_back(static_cast<uint32_t>(p));
  }
  return Status::OK();
}

uint32_t Monitor::DsuFind(uint32_t i) {
  while (dsu_parent_[i] != i) {
    dsu_parent_[i] = dsu_parent_[dsu_parent_[i]];  // path halving
    i = dsu_parent_[i];
  }
  return i;
}

void Monitor::DsuUnion(uint32_t a, uint32_t b) {
  uint32_t ra = DsuFind(a);
  uint32_t rb = DsuFind(b);
  if (ra == rb) return;
  if (dsu_size_[ra] < dsu_size_[rb]) std::swap(ra, rb);
  dsu_parent_[rb] = ra;
  dsu_size_[ra] += dsu_size_[rb];
  Component& into = comp_[ra];
  const Component& from = comp_[rb];
  into.all_pa = into.all_pa && from.all_pa;
  into.all_release = into.all_release && from.all_release;
  into.placed |= from.placed;
}

Monitor::Placement Monitor::ComponentRule(uint32_t root) const {
  const Component& c = comp_[root];
  if (c.all_pa) return Placement::kPointAlg;
  if (dsu_size_[root] == 1 || c.all_release) return Placement::kCohort;
  return Placement::kProgression;
}

void Monitor::AtomsOf(ptl::Formula f) {
  atoms_scratch_.clear();
  std::vector<ptl::Formula> stack{f};
  std::unordered_set<ptl::Formula> seen{f};
  while (!stack.empty()) {
    ptl::Formula g = stack.back();
    stack.pop_back();
    if (g->kind() == ptl::Kind::kAtom) {
      atoms_scratch_.push_back(g->atom());
      continue;
    }
    for (size_t i = 0; i < 2; ++i) {
      ptl::Formula c = g->child(i);
      if (c != nullptr && seen.insert(c).second) stack.push_back(c);
    }
  }
  std::sort(atoms_scratch_.begin(), atoms_scratch_.end());
  atoms_scratch_.erase(std::unique(atoms_scratch_.begin(), atoms_scratch_.end()),
                       atoms_scratch_.end());
}

void Monitor::EnsureCohortTable(Cohort* ch, uint32_t rows_needed,
                                uint32_t cols_needed) {
  if (rows_needed <= ch->rows && cols_needed <= ch->cols) return;
  uint32_t rows = std::max({rows_needed, ch->rows * 2, 8u});
  uint32_t cols = std::max({cols_needed, ch->cols * 2, 4u});
  std::vector<uint32_t> table(static_cast<size_t>(rows) * cols,
                              kCellUndiscovered);
  for (uint32_t r = 0; r < ch->rows; ++r) {
    std::copy(ch->table.begin() + static_cast<size_t>(r) * ch->cols,
              ch->table.begin() + static_cast<size_t>(r) * ch->cols + ch->cols,
              table.begin() + static_cast<size_t>(r) * cols);
  }
  ch->table = std::move(table);
  ch->rows = rows;
  ch->cols = cols;
}

Result<uint32_t> Monitor::CohortCell(Cohort* ch, uint32_t state, uint32_t sig,
                                     bool* discovered) {
  if (state < ch->rows && sig < ch->cols) {
    uint32_t cell = ch->table[static_cast<size_t>(state) * ch->cols + sig];
    if (cell != kCellUndiscovered) return cell;
  }
  *discovered = true;
  TIC_ASSIGN_OR_RETURN(ptl::TransitionStep step, ch->ts->StepSig(state, sig));
  // One id is reserved so a fully-set cell can't collide with the
  // undiscovered sentinel.
  if (step.next >= kCellNextMask) {
    return Status::ResourceExhausted("cohort state-set id space exhausted");
  }
  uint32_t cell = (step.live ? 1u << 31 : 0) |
                  (step.any_survivor ? 1u << 30 : 0) | step.next;
  // The successor needs a row of its own before the next gather reads it.
  EnsureCohortTable(ch, std::max(state, step.next) + 1, sig + 1);
  ch->table[static_cast<size_t>(state) * ch->cols + sig] = cell;
  return cell;
}

Result<Monitor::Placement> Monitor::PlaceOne(uint32_t idx,
                                             const ptl::AutomatonHandle& h) {
  ptl::Formula residual = instances_[idx].residual;
  if (residual->kind() == ptl::Kind::kTrue) return Placement::kInert;
  if (residual->kind() == ptl::Kind::kFalse || h.ts == nullptr) {
    return Placement::kProgression;
  }
  uint32_t c;
  if (const uint32_t* hit = cohort_by_ts_.Get(h.ts.get())) {
    c = *hit;
  } else {
    c = static_cast<uint32_t>(cohorts_.size());
    cohorts_.push_back(Cohort{});
    Cohort& fresh = cohorts_.back();
    fresh.ts = h.ts;
    fresh.stride = static_cast<uint32_t>(h.letters.size());
    TIC_ASSIGN_OR_RETURN(fresh.zero_sig,
                         h.ts->InternSignature(ptl::PropState{}, h.letters));
    cohort_by_ts_.Emplace(h.ts.get(), c);
  }
  // Catch the new slot up through the stored word EXCLUDING the state just
  // appended: CohortStepAll applies the current letter to every slot after
  // placement, new and old alike. Renamed replays share the transition memo,
  // so N symmetric arrivals cost one miss-path walk plus N-1 memo hits per
  // past state.
  uint32_t s = h.ts->initial();
  for (size_t j = 0; j < word_.size(); ++j) {
    // The final run contributes one repetition less: the current letter is
    // applied to every slot (new and old) by CohortStepAll after placement.
    uint64_t reps = word_[j].repeat - (j + 1 == word_.size() ? 1 : 0);
    for (uint64_t r = 0; r < reps; ++r) {
      TIC_ASSIGN_OR_RETURN(ptl::TransitionStep step,
                           h.ts->Step(s, word_[j].w, h.letters));
      // Deterministic transitions: a self-loop is this run's fixpoint.
      if (step.next == s) break;
      s = step.next;
    }
  }
  Cohort& ch = cohorts_[c];
  uint32_t slot = static_cast<uint32_t>(ch.states.size());
  // A departure from states[0] breaks the uniform-stale representation:
  // materialize before appending.
  if (ch.uniform && slot > 0 && s != ch.states[0]) {
    for (uint32_t i = 1; i < slot; ++i) ch.states[i] = ch.states[0];
    ch.uniform = false;
  }
  ch.states.push_back(s);
  ch.fold_states.push_back(h.ts->initial());
  ch.members.push_back(idx);
  ch.hot_count.push_back(0);
  ch.hot_pos.push_back(0);
  for (ptl::PropId p : h.letters) {
    ch.letters.push_back(p);
    WatchLetter(p, (static_cast<uint64_t>(c) << 32) | slot);
    // Seed hot tracking from the current letter: flips before this placement
    // (including the full first-update build) happened without an owner.
    if (cur_letter_.Get(p) && ch.hot_count[slot]++ == 0) {
      ch.hot_pos[slot] = static_cast<uint32_t>(ch.hot_slots.size());
      ch.hot_slots.push_back(slot);
    }
  }
  EnsureCohortTable(&ch, s + 1, ch.zero_sig + 1);
  ++num_cohort_slots_;
  return Placement::kCohort;
}

void Monitor::WatchLetter(ptl::PropId p, uint64_t owner) {
  auto [e, inserted] = cohort_touch_.Emplace(p, owner);
  if (inserted) return;
  if ((e->second & kTouchList) != 0) {
    touch_lists_[e->second & ~kTouchList].push_back(owner);
    return;
  }
  // Second watcher: the letter moves from its single owner to a list.
  flat::SmallVec<uint64_t, 4> owners;
  owners.push_back(e->second);
  owners.push_back(owner);
  e->second = kTouchList | touch_lists_.size();
  touch_lists_.push_back(std::move(owners));
}

Status Monitor::RebuildPlacements() {
  // A fresh instance joined a component whose placed members the rule would
  // now move (a cohort or point-algebra component absorbed a member outside
  // its fragment), or nothing is placed yet (first update, restore):
  // recompute the whole partition. Correct by simplicity — instances hold
  // their checkpoint formulas, so the recomputed progression set catches up
  // from them (this update's CatchUp), and re-cohorted instances replay
  // through the shared transition memo.
  TIC_SPAN("monitor.cohort_rebuild");
  TIC_COUNTER_ADD("monitor/cohort_rebuilds", 1);
  cohorts_.clear();
  cohort_by_ts_.Clear();
  cohort_touch_.Clear();
  touch_lists_.clear();
  atom_owner_.Clear();
  placement_.clear();
  dsu_parent_.clear();
  dsu_size_.clear();
  comp_.clear();
  num_cohort_slots_ = 0;
  pa_.Reset();
  pa_shape_.clear();
  prog_members_.clear();
  running_residuals_.clear();
  progress_classes_.clear();
  // Nothing is placed yet, so nothing can have to move.
  TIC_ASSIGN_OR_RETURN(bool placed, PlaceRange(0));
  (void)placed;
  TIC_RECORD(kCohortRebuild, cohorts_.size(), num_cohort_slots_,
             prog_members_.size());
  return Status::OK();
}

void Monitor::RoutePointAlg(uint32_t idx) {
  pa_.BeginInstance(idx, pa_shape_[idx]);
  // Catch the instance up through the stored word INCLUDING the final run
  // (the current letter): PA instances are never stepped by CohortStepAll,
  // and this transaction's flips preceded registration, so the watchers only
  // see future deltas. One step per RLE run is exact — the fragment's unit
  // transition is idempotent for a fixed letter.
  for (const WordEntry& e : word_) pa_.StepInstanceOn(idx, e.w);
}

Result<bool> Monitor::PlaceRange(size_t first) {
  const uint32_t lo = static_cast<uint32_t>(first);
  const uint32_t n = static_cast<uint32_t>(instances_.size());
  dsu_parent_.resize(n);
  dsu_size_.resize(n);
  comp_.resize(n);
  placement_.resize(n, Placement::kProgression);
  pa_shape_.resize(n, nullptr);
  for (uint32_t i = lo; i < n; ++i) {
    dsu_parent_[i] = i;
    dsu_size_[i] = 1;
    comp_[i] = Component{};
    pa_shape_[i] = pa_.ShapeOf(instances_[i].residual);
    comp_[i].all_pa = pa_shape_[i] != nullptr;
  }
  for (uint32_t i = lo; i < n; ++i) {
    AtomsOf(instances_[i].residual);
    for (ptl::PropId p : atoms_scratch_) {
      auto [e, inserted] = atom_owner_.Emplace(p, i);
      if (!inserted) DsuUnion(i, e->second);
    }
  }
  // Compile each instance the rule may still send to a cohort slot. Its
  // shape's release bit joins its component's; a multi-member component
  // leaves the cohort route at its first member outside the fragment, and
  // its remaining members are not compiled.
  std::vector<ptl::AutomatonHandle> handles(n - lo);
  for (uint32_t i = lo; i < n; ++i) {
    uint32_t r = DsuFind(i);
    ptl::Kind k = instances_[i].residual->kind();
    if (ComponentRule(r) != Placement::kCohort || k == ptl::Kind::kTrue ||
        k == ptl::Kind::kFalse) {
      continue;
    }
    Result<ptl::AutomatonHandle> h = options_.automaton_cache->Get(
        prop_factory_, instances_[i].residual, options_.tableau);
    if (!h.ok()) {
      // Budget blowups (non-safe formulas with huge covers) fall back to
      // progression, which only materializes the residuals visited.
      TIC_COUNTER_ADD("monitor/cohort_compile_fallbacks", 1);
      comp_[r].all_release = false;
      continue;
    }
    if (!h->ts->release_fragment()) comp_[r].all_release = false;
    handles[i - lo] = std::move(*h);
  }
  for (uint32_t i = lo; i < n; ++i) {
    uint32_t r = DsuFind(i);
    uint8_t allowed = uint8_t{1} << static_cast<uint8_t>(ComponentRule(r));
    if ((comp_[r].placed & ~allowed) != 0) return false;
  }
  size_t pa_routed = 0;
  size_t release_slots = 0;
  for (uint32_t i = lo; i < n; ++i) {
    uint32_t r = DsuFind(i);
    Placement pl = ComponentRule(r);
    if (pl == Placement::kPointAlg) {
      RoutePointAlg(i);
      ++pa_routed;
    } else if (pl == Placement::kCohort) {
      TIC_ASSIGN_OR_RETURN(pl, PlaceOne(i, handles[i - lo]));
      if (pl == Placement::kCohort && dsu_size_[r] > 1) ++release_slots;
    }
    placement_[i] = pl;
    comp_[r].placed |= uint8_t{1} << static_cast<uint8_t>(pl);
    if (pl == Placement::kProgression) prog_members_.push_back(i);
  }
  if (pa_routed > 0) {
    size_t units = pa_.num_units();
    TIC_RECORD(kRouteDecision, 1, pa_routed, units);
    (void)units;
  }
  if (release_slots > 0) {
    TIC_RECORD(kRouteDecision, 3, release_slots, cohorts_.size());
  }
  return true;
}

Status Monitor::PlaceInstances() {
  const size_t n = instances_.size();
  if (backend_ == MonitorBackend::kProgression) {
    // Nothing is placed: every instance steps on progression.
    for (size_t i = prog_members_.size(); i < n; ++i) {
      prog_members_.push_back(static_cast<uint32_t>(i));
    }
    return Status::OK();
  }
  const size_t first = placement_.size();
  if (first == n) return Status::OK();  // steady state: no-op
  if (first > 0) {
    // Incremental path: extend the union-find with the fresh instances only.
    TIC_ASSIGN_OR_RETURN(bool placed, PlaceRange(first));
    if (placed) return Status::OK();
  }
  return RebuildPlacements();
}

uint64_t Monitor::OnLetterFlip(ptl::PropId p, bool value) {
  const uint64_t* packed = cohort_touch_.Get(p);
  if (packed == nullptr) return ~uint64_t{0};
  if ((*packed & kTouchList) == 0) {
    FlipSlot(*packed, value);
    return *packed;
  }
  const flat::SmallVec<uint64_t, 4>& owners =
      touch_lists_[*packed & ~kTouchList];
  for (uint64_t owner : owners) FlipSlot(owner, value);
  return owners[0];
}

void Monitor::FlipSlot(uint64_t owner, bool value) {
  Cohort& ch = cohorts_[owner >> 32];
  uint32_t slot = static_cast<uint32_t>(owner & 0xFFFFFFFFu);
  if (value) {
    if (ch.hot_count[slot]++ == 0) {
      ch.hot_pos[slot] = static_cast<uint32_t>(ch.hot_slots.size());
      ch.hot_slots.push_back(slot);
    }
  } else if (--ch.hot_count[slot] == 0) {
    // Swap-remove; fix the displaced slot's position index.
    uint32_t at = ch.hot_pos[slot];
    uint32_t last = ch.hot_slots[ch.hot_slots.size() - 1];
    ch.hot_slots[at] = last;
    ch.hot_pos[last] = at;
    ch.hot_slots.pop_back();
  }
}

Status Monitor::CohortStepAll(const ptl::PropState& w, MonitorVerdict* verdict,
                              bool* all_live) {
  TIC_SPAN("monitor.cohort_step");
  bool live = true;
  // Per-update culprit capture: cleared cheaply (capacity kept), filled only
  // on the terminal update where a cohort cell dies.
  dead_scratch_.clear();
  dead_total_ = 0;
  for (Cohort& ch : cohorts_) {
    const size_t n = ch.states.size();
    if (n == 0) continue;
    bool discovered = false;
    uint64_t cohort_misses = 0;
    cohort_steps_ += n;
    if (ch.uniform && ch.hot_slots.empty()) {
      // Every slot sits in states[0] and no slot has a true letter: the
      // whole cohort advances with ONE cell read.
      bool miss = false;
      TIC_ASSIGN_OR_RETURN(uint32_t cell,
                           CohortCell(&ch, ch.states[0], ch.zero_sig, &miss));
      ch.states[0] = cell & kCellNextMask;
      live = live && (cell >> 31) != 0;
      if ((cell >> 31) == 0) {
        // All slots share the dead cell: every member is a culprit.
        dead_total_ += n;
        for (size_t i = 0; i < n && dead_scratch_.size() < kMaxExplanations;
             ++i) {
          dead_scratch_.push_back(ch.members[i]);
        }
      }
      if (miss) {
        discovered = true;
        ++cohort_misses;
      }
    } else {
      if (ch.uniform) {
        // Leave the uniform-stale representation before per-slot stepping.
        for (size_t i = 1; i < n; ++i) ch.states[i] = ch.states[0];
        ch.uniform = false;
      }
      if (gather_scratch_.size() < n) gather_scratch_.resize(n);
      flat::GatherRow(ch.table.data(), ch.cols, ch.zero_sig, ch.states.data(),
                      n, gather_scratch_.data());
      // Hot slots (a true letter of their own) see a non-zero signature;
      // their cells override the gathered zero-signature row. CohortCell may
      // grow the table, but the gather already copied cell VALUES, which
      // stay valid across growth.
      for (uint32_t slot : ch.hot_slots) {
        TIC_ASSIGN_OR_RETURN(
            uint32_t sig,
            ch.ts->InternSignature(w, ch.letters.data() + slot * ch.stride,
                                   ch.stride));
        bool miss = false;
        TIC_ASSIGN_OR_RETURN(gather_scratch_[slot],
                             CohortCell(&ch, ch.states[slot], sig, &miss));
        if (miss) {
          discovered = true;
          ++cohort_misses;
        }
      }
      uint32_t and_acc = ~0u;
      uint32_t or_acc = 0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t cell = gather_scratch_[i];
        if (cell == kCellUndiscovered) {
          // Only untouched slots can still be unresolved (touched ones were
          // filled above), so the signature is the zero signature.
          bool miss = false;
          TIC_ASSIGN_OR_RETURN(
              cell, CohortCell(&ch, ch.states[i], ch.zero_sig, &miss));
          // Store the resolved cell back so the death scan below sees every
          // slot's actual cell (miss path only — no steady-state cost).
          gather_scratch_[i] = cell;
          discovered = true;
          ++cohort_misses;
        }
        ch.states[i] = cell & kCellNextMask;
        and_acc &= cell;
        or_acc |= cell;
      }
      live = live && (and_acc >> 31) != 0;
      if ((and_acc >> 31) == 0) {
        // Terminal update: collect the members whose cell died (provenance
        // culprits). gather_scratch_ holds every slot's resolved cell.
        for (size_t i = 0; i < n; ++i) {
          if ((gather_scratch_[i] >> 31) != 0) continue;
          ++dead_total_;
          if (dead_scratch_.size() < kMaxExplanations) {
            dead_scratch_.push_back(ch.members[i]);
          }
        }
      }
      // All slots landed on one state: back to the single-cell fast path.
      ch.uniform = ((and_acc ^ or_acc) & kCellNextMask) == 0;
    }
    cohort_table_hits_ += n - std::min<uint64_t>(n, cohort_misses);
    // Offline minimization trigger — checked only when this update resolved a
    // new cell, so the steady state takes no TransitionSystem lock at all.
    if (discovered && options_.cohort_minimize_interval > 0) {
      uint64_t sets = ch.ts->num_state_sets();
      if (sets >= ch.sets_at_minimize + options_.cohort_minimize_interval) {
        ptl::MinimizeStats ms = ch.ts->MinimizeNow();
        TIC_GAUGE_SET("monitor/cohort_collapsed_sets", ms.collapsed_sets);
        // Representatives are valid under every letter (liveness and literal
        // masks are class-invariant), so live states remap without replay.
        // Fold states remap with them, or an unmoved slot would read as
        // moved at the next Compact().
        for (size_t i = 0; i < n; ++i) {
          ch.states[i] = ch.ts->Representative(ch.states[i]);
          ch.fold_states[i] = ch.ts->Representative(ch.fold_states[i]);
        }
        ch.sets_at_minimize = ch.ts->num_state_sets();
        TIC_RECORD(kCohortMinimize, ms.collapsed_sets, ch.sets_at_minimize,
                   static_cast<uint64_t>(&ch - cohorts_.data()));
      }
    }
  }
  *all_live = live;
  verdict->num_cohorts = cohorts_.size();
  verdict->num_cohort_instances = num_cohort_slots_;
  TIC_GAUGE_SET("monitor/cohorts", cohorts_.size());
  TIC_GAUGE_SET("monitor/cohort_instances", num_cohort_slots_);
  TIC_GAUGE_SET("monitor/gather_width", flat::GatherWidth());
  return Status::OK();
}

Result<MonitorVerdict> Monitor::ApplyTransaction(const Transaction& txn) {
  TIC_SPAN("monitor.update");
  TIC_COUNTER_ADD("monitor/updates", 1);
#ifdef TIC_TELEMETRY_ENABLED
  telemetry::StallWatchdog::Scope watchdog_scope(watchdog_.get());
#endif
  if (past_ != nullptr) {
    // Past route: the whole update is one history-less evaluator pass over
    // the auxiliary tables — no letter, no word, no instances.
#ifdef TIC_TELEMETRY_ENABLED
    uint64_t t0 = telemetry::RecorderActive()
                      ? telemetry::recorder_internal::NowTicks()
                      : 0;
#endif
    TIC_ASSIGN_OR_RETURN(past::PastVerdict pv, past_->ApplyTransaction(txn));
    MonitorVerdict verdict;
    verdict.time = pv.time;
    verdict.backend = MonitorBackend::kPastStateless;
    // G-past violations are permanent (Proposition 2.1 safety), so losing
    // classical satisfaction and losing potential satisfaction coincide.
    verdict.potentially_satisfied = !pv.first_violation.has_value();
    verdict.permanently_violated = pv.first_violation.has_value();
    verdict.num_instances = 1;
    verdict.residual_size = past_->AuxiliaryStateSize();
    TIC_RECORD(kTxnApplied, pv.time, txn.size(), 1);
#ifdef TIC_TELEMETRY_ENABLED
    if (t0 != 0) {
      uint64_t ticks = telemetry::recorder_internal::NowTicks() - t0;
      TIC_RECORD(kFragmentStep, 2, verdict.residual_size, ticks);
    }
#endif
    NoteVerdict(verdict);
    last_verdict_ = verdict;
    return verdict;
  }
  // Rejected ops fail here, before anything else has changed.
  TIC_RETURN_NOT_OK(tic::ApplyTransaction(&state_, txn));
  const size_t abs_t = num_states_++;  // absolute instant of the new state
  TIC_RECORD(kTxnApplied, abs_t, txn.size(), instances_.size());
  last_delta_.clear();  // capacity kept warm: no steady-state allocation
  MonitorVerdict verdict;
  verdict.time = abs_t;
  verdict.backend = backend_;

  if (dead_) {
    verdict.permanently_violated = true;
    verdict.potentially_satisfied = false;
    verdict.cumulative_tableau_stats = cumulative_tableau_stats_;
    // Late verdicts carry the flip's diagnoses: callers that notice the
    // violation on a later update still get the original explanation.
    verdict.diagnoses = explanations_;
    verdict.num_culprits = num_culprits_;
    last_verdict_ = verdict;
    return verdict;
  }

  // New relevant elements introduced by this state? The scan is O(delta):
  // an element can only join the active domain through an inserted tuple
  // that survives the transaction, so only the txn's ops are examined —
  // never the whole database.
  active_scratch_.Clear();
  std::vector<Value> fresh;
  for (const UpdateOp& op : txn) {
    if (op.kind != UpdateOp::Kind::kInsert) continue;
    int holds = -1;  // lazily checked once per op
    for (Value v : op.tuple) {
      if (std::binary_search(known_relevant_.begin(), known_relevant_.end(),
                             v)) {
        continue;
      }
      if (holds < 0) holds = state_.Holds(op.predicate, op.tuple);
      if (holds == 1 && active_scratch_.Insert(v)) fresh.push_back(v);
    }
  }
  std::sort(fresh.begin(), fresh.end());

  // Current letter, maintained incrementally: the new state differs from the
  // previous one by exactly this transaction's ops, so updating the letter is
  // O(delta) — and `letter_changed` tells the word RLE below whether the new
  // state extends the current run (an empty transaction costs nothing).
  // The first state's letters are minted predicate by predicate, not in op
  // order: a predicate's letter ids then stay contiguous, which keeps every
  // cohort slot's lookups into the current letter local (op order measured
  // ~11% slower per idle_fleet heartbeat). Predicates the matrix does not
  // mention get no letter at all.
  bool letter_changed = false;
  if (abs_t == 0) {
    for (PredicateId p = 0; p < reads_pred_.size(); ++p) {
      if (reads_pred_[p] == 0) continue;
      for (const Tuple& tuple : state_.relation(p)) {
        cur_letter_.Set(Letter(p, tuple), true);
      }
    }
  } else {
    for (const UpdateOp& op : txn) {
      if (reads_pred_[op.predicate] == 0) continue;
      ptl::PropId p = Letter(op.predicate, op.tuple);
      bool value = op.kind == UpdateOp::Kind::kInsert;
      if (cur_letter_.Get(p) != value) {
        cur_letter_.Set(p, value);
        // The owner must be computed OUTSIDE the macro: TIC_RECORD's
        // TIC_TELEMETRY=OFF branch leaves its arguments unevaluated.
        uint64_t owner = OnLetterFlip(p, value);
        pa_.OnFlip(p, value);
        TIC_RECORD(kLetterFlip, p, value ? 1 : 0, owner);
        (void)owner;
        if (options_.provenance) last_delta_.emplace_back(p, value);
        letter_changed = true;
      }
    }
  }
  const ptl::PropState& w = cur_letter_;
  if (!letter_changed && !word_.empty()) {
    ++word_.back().repeat;
  } else {
    word_.push_back(WordEntry{w, 1});
  }

  TIC_COUNTER_ADD("monitor/fresh_elements", fresh.size());
  if (!fresh.empty()) TIC_RETURN_NOT_OK(CreateFreshInstances(fresh));

  // Each letter-connected component steps on its placement: cohort slots in
  // SoA lockstep, point-algebra units by their watched literals, and the
  // rest — every instance on the progression backend — on progression.
  // On the first two, recurring database states cost table reads and hash
  // lookups: no progression rewrite, no tableau.
  TIC_RETURN_NOT_OK(PlaceInstances());
  bool live = true;
  TIC_RETURN_NOT_OK(CohortStepAll(w, &verdict, &live));
  if (pa_.num_instances() > 0) {
    // Advance exactly the units this transaction's flips touched.
#ifdef TIC_TELEMETRY_ENABLED
    uint64_t pa_t0 = telemetry::RecorderActive()
                         ? telemetry::recorder_internal::NowTicks()
                         : 0;
#endif
    uint32_t stepped = pa_.StepDirty();
    verdict.num_pointalg_instances = pa_.num_instances();
#ifdef TIC_TELEMETRY_ENABLED
    if (pa_t0 != 0) {
      uint64_t ticks = telemetry::recorder_internal::NowTicks() - pa_t0;
      TIC_RECORD(kFragmentStep, 1, stepped, ticks);
    }
#endif
    (void)stepped;
    if (!pa_.all_alive()) {
      live = false;
      // Exact culprits for provenance, appended after CohortStepAll's
      // own dead-slot collection (it clears dead_scratch_ first).
      for (uint32_t i = 0; i < placement_.size(); ++i) {
        if (placement_[i] == Placement::kPointAlg && !pa_.InstanceAlive(i)) {
          ++dead_total_;
          if (dead_scratch_.size() < kMaxExplanations) {
            dead_scratch_.push_back(i);
          }
        }
      }
    }
  }
  // Lemma 4.2 taken literally for the instances on progression: rewrite
  // every running residual through the new letter, catch up the members
  // that have none yet (placed this update, or every member after a
  // rebuild) by replaying the word from their basis, then decide the
  // conjunction. A monitor with no instance on progression skips all of it.
  ptl::Formula entering = nullptr;  // provenance: the conjunction before w
  if (!prog_members_.empty()) {
    // The previous update's conjunction enters this letter unless members
    // joined since.
    if (running_residuals_.size() == prog_members_.size()) entering = conj_;
    TIC_RETURN_NOT_OK(ProgressAll(w));
    TIC_RETURN_NOT_OK(CatchUp());
    {
      // Balanced (AndAll) rather than left-deep: the hash-consed tree stays
      // logarithmic in depth and re-shares across updates.
      TIC_SPAN("monitor.conjunction");
      std::vector<ptl::Formula> parts;
      parts.reserve(running_residuals_.size());
      bool any_false = false;
      for (ptl::Formula r : running_residuals_) {
        if (r->kind() == ptl::Kind::kFalse) {
          any_false = true;
          break;
        }
        parts.push_back(r);
      }
      conj_ = any_false ? prop_factory_->False() : prop_factory_->AndAll(parts);
    }
    verdict.residual_size = conj_->size();
    if (conj_->kind() == ptl::Kind::kFalse) {
      live = false;
    } else if (live && mode_ == MonitorMode::kEager) {
      // kLazy (Lipeck–Saake-style weak monitoring) runs no satisfiability
      // check and reports "no violation detected yet"; nor does an update
      // whose cohort slots or point-algebra units already died.
      TIC_SPAN("monitor.sat_check");
      TIC_ASSIGN_OR_RETURN(ptl::SatResult sat,
                           ptl::CheckSat(prop_factory_.get(), conj_, options_.tableau));
      // CheckSat stats are per-call; fold them into the lifetime totals here.
      verdict.tableau_stats = sat.stats;
      cumulative_tableau_stats_ += sat.stats;
      live = sat.satisfiable;
    }
  }
  verdict.num_residual_classes = progress_classes_.size() + cohorts_.size();
  // Fold cohort stepping into the automaton counters: a table-cell read is
  // this path's memo hit.
  verdict.automaton_stats.steps = cohort_steps_;
  verdict.automaton_stats.memo_hits = cohort_table_hits_;
  for (const Cohort& ch : cohorts_) {
    ptl::TransitionSystemStats s = ch.ts->stats();
    verdict.automaton_stats.num_states += s.num_states;
    verdict.automaton_stats.num_state_sets += s.num_state_sets;
    verdict.automaton_stats.num_signatures += s.num_signatures;
    verdict.automaton_stats.live_queries += s.live_queries;
    verdict.automaton_stats.alphabet_size += s.alphabet_size;
  }
  // Exact verdict: the monitored condition is the conjunction over all
  // instances, and sat factors across letter-connected components (the
  // fragments' witness property makes the point-algebra clause verdict and
  // the release slots' AND equal per-component sat).
  verdict.potentially_satisfied = live;
  if (!live) {
    dead_ = true;
    verdict.permanently_violated = true;
    if (options_.provenance) {
      TIC_RETURN_NOT_OK(BuildExplanations(abs_t, w, entering, &verdict));
    }
  }
  verdict.num_instances = instances_.size();
  TIC_GAUGE_SET("monitor/instances", instances_.size());
  TIC_HISTOGRAM_RECORD("monitor/residual_size", verdict.residual_size);
  verdict.cumulative_tableau_stats = cumulative_tableau_stats_;
  if (options_.tableau.verdict_cache != nullptr) {
    verdict.verdict_cache_stats = options_.tableau.verdict_cache->stats();
  }
  if (options_.automaton_cache != nullptr) {
    verdict.automaton_cache_stats = options_.automaton_cache->stats();
  }
  NoteVerdict(verdict);
  last_verdict_ = verdict;
  return verdict;
}

const std::vector<Diagnosis>& MonitorVerdict::explanations() const {
  static const std::vector<Diagnosis> kEmpty;
  return diagnoses != nullptr ? *diagnoses : kEmpty;
}

void Monitor::NoteVerdict(const MonitorVerdict& v) {
  if (any_verdict_ && v.potentially_satisfied == last_sat_) return;
  any_verdict_ = true;
  last_sat_ = v.potentially_satisfied;
  TIC_RECORD(kVerdictChange, v.time, last_sat_ ? 1 : 0, v.num_instances);
}

void Monitor::CaptureDelta(Diagnosis* d) const {
  d->delta.reserve(last_delta_.size());
  for (const auto& [p, v] : last_delta_) {
    d->delta.push_back(DiagnosisDelta{p, v, prop_vocab_->Name(p)});
  }
}

Status Monitor::BuildTrajectory(ptl::Formula basis, Diagnosis* d,
                                ptl::PropState* fatal_w) {
  ptl::Factory* pf = prop_factory_.get();
  ptl::Formula cur = basis;
  ptl::Formula prev = nullptr;
  auto push = [&](size_t tm, ptl::Formula f) {
    if (d->trajectory.size() == kTrajectoryK) {
      d->trajectory.erase(d->trajectory.begin());
    }
    d->trajectory.push_back(DiagnosisStep{tm, f, f->size()});
  };
  // The word starts at state 0, or once compacted just after the checkpoint
  // state time_base_, where the basis is itself the residual.
  size_t time = 0;
  if (compacted_) {
    push(time_base_, basis);
    time = time_base_ + 1;
  }
  for (const WordEntry& e : word_) {
    for (uint64_t r = 0; r < e.repeat; ++r) {
      TIC_ASSIGN_OR_RETURN(ptl::Formula next, ptl::Progress(pf, cur, e.w));
      prev = cur;
      cur = next;
      push(time, cur);
      ++time;
      if (d->last_live == nullptr && cur->kind() == ptl::Kind::kFalse) {
        // The residual collapsed HERE; everything after stays false, so this
        // state's letter is the fatal one regardless of what followed.
        d->last_live = prev;
        *fatal_w = e.w;
      }
      if (cur == prev) {
        // Hash-consed fixpoint under this run's letter: the remaining
        // repetitions leave the residual unchanged. Synthesize the (at most
        // K) trajectory tail instead of re-progressing a long run.
        uint64_t remaining = e.repeat - r - 1;
        uint64_t skip = remaining > kTrajectoryK ? remaining - kTrajectoryK : 0;
        time += skip;
        for (uint64_t j = skip; j < remaining; ++j) {
          push(time, cur);
          ++time;
        }
        break;
      }
    }
  }
  d->residual = cur;
  if (d->last_live == nullptr) {
    // Never literally false (the conjunction died of unsatisfiability): the
    // fatal letter is the latest one, and `prev` entered it.
    d->last_live = prev;
    if (!word_.empty()) *fatal_w = word_.back().w;
  }
  return Status::OK();
}

Result<Diagnosis> Monitor::DiagnoseInstance(uint32_t idx, size_t t,
                                            const ptl::PropState& w) {
  const Instance& inst = instances_[idx];
  Diagnosis d;
  d.time = t;
  d.factory = prop_factory_;
  d.assignment = inst.assignment;
  for (size_t i = 0; i < external_.size() && i < d.assignment.size(); ++i) {
    if (i > 0) d.assignment_text += ", ";
    d.assignment_text += ffac_->VarName(external_[i]);
    d.assignment_text += "=";
    d.assignment_text += d.assignment[i].ToString();
  }
  TIC_ASSIGN_OR_RETURN(d.grounded, GroundMatrix(inst.assignment));
  ptl::PropState fatal_w = w;
  TIC_RETURN_NOT_OK(BuildTrajectory(inst.residual, &d, &fatal_w));
  if (d.last_live != nullptr && d.last_live->kind() != ptl::Kind::kFalse) {
    TIC_ASSIGN_OR_RETURN(
        ptl::CollapseExplanation ce,
        ptl::ExplainCollapse(prop_factory_.get(), d.last_live, fatal_w));
    d.subformula = ce.subformula;
    d.closure_index = ce.closure_index;
    d.subformula_progressed_to_false = ce.progressed_to_false;
  }
  CaptureDelta(&d);
  return d;
}

Status Monitor::BuildExplanations(size_t t, const ptl::PropState& w,
                                  ptl::Formula entering,
                                  MonitorVerdict* verdict) {
  TIC_SPAN("monitor.provenance");
  explanations_ = std::make_shared<std::vector<Diagnosis>>();
  num_culprits_ = 0;

  std::vector<uint32_t> culprits;
  if (!dead_scratch_.empty()) {
    // Cohort or point-algebra death: the engines identified the dead
    // instances exactly.
    culprits = dead_scratch_;
    num_culprits_ = dead_total_;
  } else {
    // Progression death: the members whose running residual literally
    // collapsed to false, else those whose residual alone is unsatisfiable
    // (capped CheckSat probes, memoized per distinct residual).
    for (size_t p = 0; p < running_residuals_.size(); ++p) {
      if (running_residuals_[p]->kind() == ptl::Kind::kFalse) {
        culprits.push_back(prog_members_[p]);
      }
    }
    if (culprits.empty()) {
      std::unordered_map<ptl::Formula, bool> live_memo;
      size_t probes = 0;
      for (size_t p = 0; p < running_residuals_.size(); ++p) {
        ptl::Formula r = running_residuals_[p];
        auto it = live_memo.find(r);
        if (it == live_memo.end()) {
          if (probes >= kMaxSatProbes) continue;
          ++probes;
          TIC_ASSIGN_OR_RETURN(
              ptl::SatResult sat,
              ptl::CheckSat(prop_factory_.get(), r, options_.tableau));
          it = live_memo.emplace(r, sat.satisfiable).first;
        }
        if (!it->second) culprits.push_back(prog_members_[p]);
      }
    }
    num_culprits_ = culprits.size();
  }

  if (culprits.empty()) {
    // No single instance explains the violation: shared letters made the
    // CONJUNCTION unsatisfiable while every conjunct stayed individually
    // live. Emit one joint diagnosis over the instances on progression; the
    // conjunction entering the fatal letter is the previous update's, or
    // their checkpoint formulas' when members joined since.
    Diagnosis d;
    d.time = t;
    d.joint = true;
    d.factory = prop_factory_;
    std::unordered_set<ptl::Formula> distinct;
    std::vector<ptl::Formula> bases;
    for (uint32_t i : prog_members_) {
      ptl::Formula basis = instances_[i].residual;
      if (distinct.insert(basis).second) bases.push_back(basis);
    }
    d.grounded = prop_factory_->AndAll(bases);
    d.residual = conj_;
    d.last_live = entering != nullptr ? entering : d.grounded;
    if (d.last_live->kind() != ptl::Kind::kFalse) {
      TIC_ASSIGN_OR_RETURN(
          ptl::CollapseExplanation ce,
          ptl::ExplainCollapse(prop_factory_.get(), d.last_live, w));
      d.subformula = ce.subformula;
      d.closure_index = ce.closure_index;
      d.subformula_progressed_to_false = ce.progressed_to_false;
    }
    CaptureDelta(&d);
    explanations_->push_back(std::move(d));
    num_culprits_ = 1;
  } else {
    for (size_t i = 0;
         i < culprits.size() && explanations_->size() < kMaxExplanations;
         ++i) {
      TIC_ASSIGN_OR_RETURN(Diagnosis d, DiagnoseInstance(culprits[i], t, w));
      explanations_->push_back(std::move(d));
    }
  }
  verdict->diagnoses = explanations_;
  verdict->num_culprits = num_culprits_;
  return Status::OK();
}

}  // namespace checker
}  // namespace tic
