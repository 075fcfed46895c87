#include "ptl/transition_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/flat/flat_map.h"
#include "common/hash.h"
#include "common/telemetry/telemetry.h"
#include "ptl/closure.h"
#include "ptl/nnf.h"
#include "ptl/safety.h"
#include "ptl/tableau_bitset_internal.h"
#include "ptl/tableau_internal.h"
#include "ptl/verdict_cache.h"

namespace tic {
namespace ptl {

namespace {

struct IdVecHash {
  uint64_t operator()(const std::vector<uint32_t>& v) const {
    return flat::WyHashBytes(v.data(), v.size() * sizeof(uint32_t));
  }
};

// Lexicographic word comparison of two equal-width bitsets (the minimizer's
// initial partition groups by exact mask content, never by hash).
int CompareBits(const FlatBits& a, const FlatBits& b) {
  const uint64_t* wa = a.words();
  const uint64_t* wb = b.words();
  for (uint32_t i = 0; i < a.num_words(); ++i) {
    if (wa[i] != wb[i]) return wa[i] < wb[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

// All of the compiled automaton's mutable state. Methods assume the owning
// TransitionSystem's mutex is held.
struct TransitionSystem::Rep {
  // Liveness trichotomy per tableau state.
  enum : uint8_t { kUnknown = 0, kLive = 1, kDead = 2 };

  Closure closure;
  TableauOptions options;
  TableauStats tstats;

  // Thin adapter publishing the protected EngineBase machinery to Rep.
  struct Core : internal::EngineBase {
    using internal::EngineBase::EngineBase;
    using internal::EngineBase::Cover;
    using internal::EngineBase::SeedIndicesOf;
    using internal::EngineBase::table_;
    using internal::EngineBase::lit_mask_;
  };
  Core core;

  bool safe = false;

  // Alphabet: the atoms the closure's literals mention, in closure-index
  // order of first occurrence (deterministic across runs).
  std::vector<PropId> alphabet;
  flat::FlatMap<PropId, uint32_t> alpha_index;
  std::vector<uint32_t> canon_of_alpha;  // alphabet pos -> canonical letter idx
  FlatBits neg_lit_mask;                 // closure bits of the kLitNeg members

  // Per-state metadata, grown whenever Cover interns new states.
  std::vector<FlatBits> pos_mask;  // positive literal atoms, over the alphabet
  std::vector<FlatBits> neg_mask;  // negated literal atoms, over the alphabet
  std::vector<uint8_t> live;       // kUnknown / kLive / kDead
  std::vector<std::vector<uint32_t>> edges;
  std::vector<uint8_t> expanded;

  // State-set interning: sorted id vectors. Flat-table entries relocate on
  // insert, so the id->set view owns its vectors (set_by_id) and the index
  // maps a copy of the key; lookups of known sets touch no heap.
  flat::FlatMap<std::vector<uint32_t>, uint32_t, IdVecHash> set_ids;
  std::vector<std::vector<uint32_t>> set_by_id;
  uint32_t empty_set = 0;

  // Letter-signature interning (bitsets over the alphabet) and the
  // transition memo keyed by (state-set id, signature id).
  internal::StateTable sig_table;
  flat::FlatMap<uint64_t, TransitionStep> memo;

  uint64_t steps = 0;
  uint64_t memo_hits = 0;
  uint64_t live_queries = 0;

  // Minimization artifacts: bisimulation class per tableau state and the
  // set-id -> representative-set-id table from the last MinimizeNow run.
  // Both identity-by-default: RepOf answers for ids interned after the run.
  std::vector<uint32_t> state_class;
  std::vector<uint32_t> set_rep;
  MinimizeStats min_stats;

  // Scratch reused across Step calls (all under the owner's lock).
  FlatBits sig_scratch;
  std::vector<uint32_t> survivors_scratch;
  std::vector<uint32_t> next_scratch;
  flat::FlatMap<uint32_t, size_t> on_path_scratch;

  Rep(Closure c, const TableauOptions& o)
      : closure(std::move(c)),
        options(o),
        core(&closure, &options, &tstats),
        neg_lit_mask(closure.size()),
        sig_table(0),  // re-seated by BuildAlphabet once the width is known
        sig_scratch() {}

  void BuildAlphabet() {
    using Op = Closure::Op;
    for (uint32_t i = 0; i < closure.size(); ++i) {
      const Closure::Rule& r = closure.rule(i);
      PropId atom;
      if (r.op == Op::kLitPos) {
        atom = r.atom;
      } else if (r.op == Op::kLitNeg) {
        atom = closure.member(i)->child(0)->atom();
        neg_lit_mask.Set(i);
      } else {
        continue;
      }
      if (alpha_index.Emplace(atom, static_cast<uint32_t>(alphabet.size())).second) {
        alphabet.push_back(atom);
      }
    }
    uint32_t width = static_cast<uint32_t>(alphabet.size());
    sig_table = internal::StateTable((width + 63) / 64);
    sig_scratch = FlatBits(width);
  }

  uint32_t AlphaIndexOf(uint32_t closure_idx) const {
    using Op = Closure::Op;
    const Closure::Rule& r = closure.rule(closure_idx);
    PropId atom = r.op == Op::kLitPos ? r.atom
                                      : closure.member(closure_idx)->child(0)->atom();
    return *alpha_index.Get(atom);
  }

  // Extends the per-state vectors to cover states interned since the last
  // call, deriving each new state's literal masks from its arena row.
  void GrowStateMeta() {
    uint32_t width = static_cast<uint32_t>(alphabet.size());
    FlatBits row(closure.size());
    for (uint32_t id = static_cast<uint32_t>(pos_mask.size());
         id < core.table_.size(); ++id) {
      FlatBits pos(width), neg(width);
      row.AssignWords(core.table_.Row(id));
      row.ForEachAnd(core.lit_mask_, [&](uint32_t i) { pos.Set(AlphaIndexOf(i)); });
      row.ForEachAnd(neg_lit_mask, [&](uint32_t i) { neg.Set(AlphaIndexOf(i)); });
      pos_mask.push_back(std::move(pos));
      neg_mask.push_back(std::move(neg));
      live.push_back(kUnknown);
      edges.emplace_back();
      expanded.push_back(0);
    }
  }

  // Lookup is allocation-free; only a genuinely new set copies `ids`.
  uint32_t InternSet(const std::vector<uint32_t>& ids) {
    uint32_t next_id = static_cast<uint32_t>(set_by_id.size());
    auto [e, inserted] = set_ids.Emplace(ids, next_id);
    if (inserted) set_by_id.push_back(ids);
    return e->second;
  }

  Status EnsureExpanded(uint32_t s) {
    if (expanded[s]) return Status::OK();
    std::vector<uint32_t> succs;
    TIC_RETURN_NOT_OK(core.Cover(core.SeedIndicesOf(s), options.max_states, &succs));
    GrowStateMeta();
    tstats.num_edges += succs.size();
    edges[s] = std::move(succs);
    expanded[s] = 1;
    return Status::OK();
  }

  bool Compatible(uint32_t s, const FlatBits& sig) const {
    return pos_mask[s].SubsetOf(sig) && !neg_mask[s].Intersects(sig);
  }

  // Liveness of one tableau state in lazy (safe) mode: without obligations
  // every infinite path is accepting, so live == "a cycle is reachable".
  // Iterative DFS with a persistent live/dead memo: hitting a known-live state
  // or closing a cycle marks the whole DFS path live (every path state reaches
  // the cycle); a state whose subtree exhausts cannot reach any cycle — had it
  // reached an on-path ancestor the cycle check would have fired — so it is
  // dead for every future query too.
  Result<bool> LiveStateSafe(uint32_t root) {
    if (live[root] != kUnknown) return live[root] == kLive;
    ++live_queries;
    struct Lv {
      uint32_t id;
      size_t edge;
    };
    std::vector<Lv> stack{{root, 0}};
    flat::FlatMap<uint32_t, size_t>& on_path = on_path_scratch;
    on_path.Clear();
    on_path.Emplace(root, size_t{0});
    auto mark_path_live = [&] {
      for (const Lv& lv : stack) live[lv.id] = kLive;
    };
    while (!stack.empty()) {
      Lv& top = stack.back();
      TIC_RETURN_NOT_OK(EnsureExpanded(top.id));
      if (top.edge >= edges[top.id].size()) {
        live[top.id] = kDead;
        on_path.Erase(top.id);
        stack.pop_back();
        continue;
      }
      uint32_t w = edges[top.id][top.edge++];
      if (live[w] == kLive || on_path.Contains(w)) {
        mark_path_live();
        return true;
      }
      if (live[w] == kDead) continue;
      on_path.Emplace(w, stack.size());
      stack.push_back({w, 0});
    }
    return false;  // root (and its whole subtree) marked dead
  }

  Result<bool> LiveState(uint32_t s) {
    if (safe) return LiveStateSafe(s);
    return live[s] == kLive;  // general mode: resolved at compile time
  }

  // General (non-safe) mode: materialize the whole reachable graph, then
  // resolve liveness by SCC analysis — a state is live iff it reaches a
  // nontrivial self-fulfilling SCC (Lichtenstein–Pnueli). ComputeSccs emits
  // components in reverse topological order, so successors of component c
  // always have smaller ids and one ascending pass propagates liveness.
  Status MaterializeAndSolve() {
    size_t head = 0;
    while (head < core.table_.size()) {
      TIC_RETURN_NOT_OK(EnsureExpanded(static_cast<uint32_t>(head)));
      ++head;
    }
    std::vector<uint32_t> scc_of;
    std::vector<std::vector<uint32_t>> members = internal::ComputeSccs(edges, &scc_of);
    std::vector<char> comp_live(members.size(), 0);
    for (size_t c = 0; c < members.size(); ++c) {
      bool nontrivial = members[c].size() > 1;
      if (!nontrivial) {
        uint32_t v = members[c][0];
        for (uint32_t w : edges[v]) {
          if (w == v) nontrivial = true;
        }
      }
      bool ok = false;
      if (nontrivial) {
        // Self-fulfilling: every obligation asserted in the SCC has its goal
        // asserted somewhere in the SCC.
        FlatBits all(closure.size());
        for (uint32_t v : members[c]) all.OrWords(core.table_.Row(v));
        ok = true;
        all.ForEachAnd(closure.obligation_mask(), [&](uint32_t i) {
          if (!all.Test(closure.rule(i).goal)) ok = false;
        });
      }
      if (!ok) {
        for (uint32_t v : members[c]) {
          for (uint32_t w : edges[v]) {
            if (scc_of[w] != c && comp_live[scc_of[w]]) {
              ok = true;
              break;
            }
          }
          if (ok) break;
        }
      }
      comp_live[c] = ok ? 1 : 0;
    }
    for (uint32_t id = 0; id < live.size(); ++id) {
      live[id] = comp_live[scc_of[id]] ? kLive : kDead;
    }
    return Status::OK();
  }

  // Projects `w` onto the alphabet through the caller's canonical letters and
  // interns the signature.
  Result<uint32_t> InternSig(const PropState& w, const PropId* letters,
                             size_t num_letters) {
    uint32_t width = static_cast<uint32_t>(alphabet.size());
    // Reuses sig_scratch (sized by BuildAlphabet): no per-Step construction
    // even when the alphabet spills past FlatBits' inline words.
    FlatBits& sig = sig_scratch;
    sig.ClearAll();
    for (uint32_t j = 0; j < width; ++j) {
      uint32_t canon = canon_of_alpha[j];
      if (canon >= num_letters) {
        return Status::InvalidArgument(
            "letter mapping too small for this transition system");
      }
      if (w.Get(letters[canon])) sig.Set(j);
    }
    bool inserted = false;
    return sig_table.Intern(sig, 0, &inserted);
  }

  uint32_t RepOf(uint32_t set_id) const {
    return set_id < set_rep.size() ? set_rep[set_id] : set_id;
  }

  // Shared transition body of Step and StepSig: memo probe, survivor filter,
  // successor union, lazy liveness. Newly computed successors are
  // canonicalized through the representative map so post-minimization
  // stepping converges onto class representatives.
  Result<TransitionStep> StepBySig(uint32_t set_id, uint32_t sig_id) {
    uint64_t key = (static_cast<uint64_t>(set_id) << 32) | sig_id;
    if (const TransitionStep* hit = memo.Get(key)) {
      ++memo_hits;
      TIC_COUNTER_ADD("automaton/transition_memo_hits", 1);
      return *hit;
    }
    TIC_COUNTER_ADD("automaton/transition_memo_misses", 1);

    sig_scratch.AssignWords(sig_table.Row(sig_id));
    const std::vector<uint32_t>& current = set_by_id[set_id];
    survivors_scratch.clear();
    for (uint32_t s : current) {
      if (Compatible(s, sig_scratch)) survivors_scratch.push_back(s);
    }

    TransitionStep step;
    step.any_survivor = !survivors_scratch.empty();
    if (!step.any_survivor) {
      step.next = empty_set;
      step.live = false;
    } else {
      next_scratch.clear();
      for (uint32_t s : survivors_scratch) {
        TIC_RETURN_NOT_OK(EnsureExpanded(s));
        next_scratch.insert(next_scratch.end(), edges[s].begin(),
                            edges[s].end());
      }
      std::sort(next_scratch.begin(), next_scratch.end());
      next_scratch.erase(std::unique(next_scratch.begin(), next_scratch.end()),
                         next_scratch.end());
      step.next = RepOf(InternSet(next_scratch));
      step.live = false;
      for (uint32_t s : survivors_scratch) {
        TIC_ASSIGN_OR_RETURN(bool l, LiveState(s));
        if (l) {
          step.live = true;
          break;
        }
      }
    }
    memo.Emplace(key, step);
    return step;
  }

  // Partition refinement over discovered tableau states, lifted to state-sets
  // (see the header comment on MinimizeNow for the soundness argument).
  MinimizeStats Minimize() {
    GrowStateMeta();
    const uint32_t n = static_cast<uint32_t>(pos_mask.size());
    state_class.assign(n, 0);
    std::vector<uint32_t> expanded_order;
    expanded_order.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      if (expanded[s]) expanded_order.push_back(s);
    }
    // Initial partition: resolved liveness plus exact literal masks. A finer
    // partition is always sound, so kUnknown simply counts as its own
    // liveness value and unexpanded states stay singleton.
    std::sort(expanded_order.begin(), expanded_order.end(),
              [&](uint32_t a, uint32_t b) {
                if (live[a] != live[b]) return live[a] < live[b];
                int c = CompareBits(pos_mask[a], pos_mask[b]);
                if (c != 0) return c < 0;
                return CompareBits(neg_mask[a], neg_mask[b]) < 0;
              });
    uint32_t num_classes = 0;
    for (size_t i = 0; i < expanded_order.size(); ++i) {
      if (i > 0) {
        uint32_t p = expanded_order[i - 1];
        uint32_t s = expanded_order[i];
        bool same = live[p] == live[s] &&
                    CompareBits(pos_mask[p], pos_mask[s]) == 0 &&
                    CompareBits(neg_mask[p], neg_mask[s]) == 0;
        if (!same) ++num_classes;
      }
      state_class[expanded_order[i]] = num_classes;
    }
    if (!expanded_order.empty()) ++num_classes;
    for (uint32_t s = 0; s < n; ++s) {
      if (!expanded[s]) state_class[s] = num_classes++;
    }

    // Refine by successor-class sets until stable. Rounds only split classes,
    // so the count is nondecreasing and bounded by n — termination in <= n
    // rounds, each O(states * out-degree + sort).
    std::vector<std::vector<uint32_t>> succ_sig(n);
    std::vector<uint32_t> next_class(n);
    while (true) {
      for (uint32_t s : expanded_order) {
        std::vector<uint32_t>& sig = succ_sig[s];
        sig.clear();
        for (uint32_t w : edges[s]) sig.push_back(state_class[w]);
        std::sort(sig.begin(), sig.end());
        sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
      }
      std::sort(expanded_order.begin(), expanded_order.end(),
                [&](uint32_t a, uint32_t b) {
                  if (state_class[a] != state_class[b]) {
                    return state_class[a] < state_class[b];
                  }
                  return succ_sig[a] < succ_sig[b];
                });
      uint32_t count = 0;
      for (size_t i = 0; i < expanded_order.size(); ++i) {
        if (i > 0) {
          uint32_t p = expanded_order[i - 1];
          uint32_t s = expanded_order[i];
          if (state_class[p] != state_class[s] || succ_sig[p] != succ_sig[s]) {
            ++count;
          }
        }
        next_class[expanded_order[i]] = count;
      }
      if (!expanded_order.empty()) ++count;
      for (uint32_t s = 0; s < n; ++s) {
        if (!expanded[s]) next_class[s] = count++;
      }
      bool stable = count == num_classes;
      num_classes = count;
      state_class.swap(next_class);
      if (stable) break;
    }

    // Lift to state-sets: equivalence = equal member-class sets, the
    // representative is the lowest id (ascending scan: first occurrence wins).
    const uint32_t nsets = static_cast<uint32_t>(set_by_id.size());
    set_rep.assign(nsets, 0);
    flat::FlatMap<std::vector<uint32_t>, uint32_t, IdVecHash> rep_of_sig;
    std::vector<uint32_t> sig;
    uint64_t collapsed = 0;
    for (uint32_t i = 0; i < nsets; ++i) {
      sig.assign(set_by_id[i].begin(), set_by_id[i].end());
      for (uint32_t& s : sig) s = state_class[s];
      std::sort(sig.begin(), sig.end());
      sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
      auto [e, inserted] = rep_of_sig.Emplace(sig, i);
      set_rep[i] = e->second;
      if (!inserted) ++collapsed;
    }
    ++min_stats.runs;
    min_stats.tableau_states = n;
    min_stats.tableau_classes = num_classes;
    min_stats.state_sets = nsets;
    min_stats.collapsed_sets = collapsed;
    TIC_COUNTER_ADD("automaton/minimize_runs", 1);
    TIC_GAUGE_SET("automaton/minimize_classes", num_classes);
    TIC_GAUGE_SET("automaton/minimize_collapsed_sets", collapsed);
    return min_stats;
  }
};

TransitionSystem::TransitionSystem() = default;
TransitionSystem::~TransitionSystem() = default;

Result<std::shared_ptr<TransitionSystem>> TransitionSystem::Compile(
    Factory* factory, Formula f, const TableauOptions& options) {
  TIC_SPAN("automaton.compile");
  TIC_COUNTER_ADD("automaton/compiles", 1);
  Formula nnf = ToNnf(factory, f);
  std::optional<CanonicalFormula> cf = Canonicalize(nnf);

  std::shared_ptr<TransitionSystem> ts(new TransitionSystem());
  TIC_ASSIGN_OR_RETURN(Closure closure, Closure::Build(factory, nnf));
  ts->rep_ = std::make_unique<Rep>(std::move(closure), options);
  Rep& r = *ts->rep_;
  r.BuildAlphabet();
  r.safe = ts->safe_ = IsSyntacticallySafe(factory, nnf);
  ts->release_fragment_ = ts->safe_ && IsReleaseFragment(factory, nnf);

  if (cf.has_value()) {
    std::unordered_map<PropId, uint32_t> inverse;
    for (uint32_t i = 0; i < cf->letters.size(); ++i) {
      inverse.emplace(cf->letters[i], i);
    }
    r.canon_of_alpha.resize(r.alphabet.size());
    for (uint32_t j = 0; j < r.alphabet.size(); ++j) {
      auto it = inverse.find(r.alphabet[j]);
      if (it == inverse.end()) {
        return Status::Internal("closure letter missing from canonical form");
      }
      r.canon_of_alpha[j] = it->second;
    }
    ts->default_letters_ = cf->letters;
  } else {
    // Too large to canonicalize: identity mapping, no cross-renaming sharing.
    r.canon_of_alpha.resize(r.alphabet.size());
    for (uint32_t j = 0; j < r.alphabet.size(); ++j) r.canon_of_alpha[j] = j;
    ts->default_letters_ = r.alphabet;
  }

  std::vector<uint32_t> initial;
  TIC_RETURN_NOT_OK(r.core.Cover({r.closure.root()}, options.max_states, &initial));
  r.GrowStateMeta();
  std::sort(initial.begin(), initial.end());
  r.empty_set = r.InternSet({});
  ts->initial_set_ = r.InternSet(std::move(initial));

  if (!ts->safe_) TIC_RETURN_NOT_OK(r.MaterializeAndSolve());
  TIC_RECORD(kAutomatonCompile, r.closure.size(), r.alphabet.size(),
             r.set_by_id.size());
  return ts;
}

Result<std::shared_ptr<TransitionSystem>> TransitionSystem::Compile(
    std::shared_ptr<Factory> factory, Formula f, const TableauOptions& options) {
  TIC_ASSIGN_OR_RETURN(std::shared_ptr<TransitionSystem> ts,
                       Compile(factory.get(), f, options));
  ts->factory_keepalive_ = std::move(factory);
  return ts;
}

Result<TransitionStep> TransitionSystem::Step(uint32_t set_id,
                                              const PropState& letter,
                                              const std::vector<PropId>& letters) {
  std::lock_guard<std::mutex> lock(mu_);
  Rep& r = *rep_;
  if (set_id >= r.set_by_id.size()) {
    return Status::InvalidArgument("unknown state-set id");
  }
  ++r.steps;
  TIC_ASSIGN_OR_RETURN(uint32_t sig_id,
                       r.InternSig(letter, letters.data(), letters.size()));
  return r.StepBySig(set_id, sig_id);
}

Result<TransitionStep> TransitionSystem::Step(uint32_t set_id,
                                              const PropState& letter) {
  return Step(set_id, letter, default_letters_);
}

Result<uint32_t> TransitionSystem::InternSignature(
    const PropState& w, const std::vector<PropId>& letters) {
  return InternSignature(w, letters.data(), letters.size());
}

Result<uint32_t> TransitionSystem::InternSignature(const PropState& w,
                                                   const PropId* letters,
                                                   size_t num_letters) {
  std::lock_guard<std::mutex> lock(mu_);
  return rep_->InternSig(w, letters, num_letters);
}

Result<TransitionStep> TransitionSystem::StepSig(uint32_t set_id,
                                                 uint32_t sig_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Rep& r = *rep_;
  if (set_id >= r.set_by_id.size()) {
    return Status::InvalidArgument("unknown state-set id");
  }
  if (sig_id >= r.sig_table.size()) {
    return Status::InvalidArgument("unknown signature id");
  }
  ++r.steps;
  return r.StepBySig(set_id, sig_id);
}

MinimizeStats TransitionSystem::MinimizeNow() {
  TIC_SPAN("automaton.minimize");
  std::lock_guard<std::mutex> lock(mu_);
  return rep_->Minimize();
}

uint32_t TransitionSystem::Representative(uint32_t set_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rep_->RepOf(set_id);
}

uint64_t TransitionSystem::num_state_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rep_->set_by_id.size();
}

MinimizeStats TransitionSystem::minimize_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rep_->min_stats;
}

Result<bool> TransitionSystem::Live(uint32_t set_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Rep& r = *rep_;
  if (set_id >= r.set_by_id.size()) {
    return Status::InvalidArgument("unknown state-set id");
  }
  for (uint32_t s : r.set_by_id[set_id]) {
    TIC_ASSIGN_OR_RETURN(bool l, r.LiveState(s));
    if (l) return true;
  }
  return false;
}

TransitionSystemStats TransitionSystem::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  const Rep& r = *rep_;
  TransitionSystemStats s;
  s.num_states = r.core.table_.size();
  s.num_edges = r.tstats.num_edges;
  s.num_state_sets = r.set_by_id.size();
  s.num_signatures = r.sig_table.size();
  s.steps = r.steps;
  s.memo_hits = r.memo_hits;
  s.live_queries = r.live_queries;
  s.alphabet_size = r.alphabet.size();
  return s;
}

AutomatonCache::AutomatonCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)), lru_(capacity_) {}

Result<AutomatonHandle> AutomatonCache::Get(Factory* factory, Formula f,
                                            const TableauOptions& options) {
  // Non-owning alias: the caller guarantees the factory outlives the cache.
  return Get(std::shared_ptr<Factory>(std::shared_ptr<Factory>(), factory), f,
             options);
}

Result<AutomatonHandle> AutomatonCache::Get(std::shared_ptr<Factory> factory,
                                            Formula f,
                                            const TableauOptions& options) {
  Formula nnf = ToNnf(factory.get(), f);
  std::optional<CanonicalFormula> cf = Canonicalize(nnf);
  if (!cf.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    TIC_ASSIGN_OR_RETURN(std::shared_ptr<TransitionSystem> ts,
                         TransitionSystem::Compile(std::move(factory), nnf,
                                                   options));
    return AutomatonHandle{ts, ts->default_letters()};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (CacheEntry* e = lru_.Find(cf->fp)) {
#ifndef NDEBUG
      assert(e->debug_key == cf->key && "AutomatonCache: Fp128 fingerprint collision");
#endif
      hits_.fetch_add(1, std::memory_order_relaxed);
      return AutomatonHandle{e->ts, std::move(cf->letters)};
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Compile outside the lock: concurrent misses on the same key may compile
  // twice, but the first insert wins and nothing blocks behind a compile.
  TIC_ASSIGN_OR_RETURN(std::shared_ptr<TransitionSystem> ts,
                       TransitionSystem::Compile(factory, nnf, options));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (CacheEntry* e = lru_.Find(cf->fp)) {
#ifndef NDEBUG
      assert(e->debug_key == cf->key && "AutomatonCache: Fp128 fingerprint collision");
#endif
      return AutomatonHandle{e->ts, std::move(cf->letters)};
    }
    CacheEntry entry;
    entry.ts = ts;
#ifndef NDEBUG
    entry.debug_key = cf->key;
#endif
    uint64_t evicted_before = lru_.evictions();
    lru_.Insert(cf->fp, std::move(entry));
    evictions_.fetch_add(lru_.evictions() - evicted_before,
                         std::memory_order_relaxed);
    entries_.store(lru_.size(), std::memory_order_relaxed);
  }
  return AutomatonHandle{std::move(ts), std::move(cf->letters)};
}

AutomatonCacheStats AutomatonCache::stats() const {
  AutomatonCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.capacity = capacity_;
  return s;
}

}  // namespace ptl
}  // namespace tic
