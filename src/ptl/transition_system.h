#ifndef TIC_PTL_TRANSITION_SYSTEM_H_
#define TIC_PTL_TRANSITION_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flat/lru.h"
#include "common/flat/wyhash.h"
#include "common/result.h"
#include "ptl/formula.h"
#include "ptl/tableau.h"
#include "ptl/word.h"

namespace tic {
namespace ptl {

/// \brief Outcome of pushing one letter through a state-set.
struct TransitionStep {
  /// Interned id of the successor state-set (the next basis).
  uint32_t next = 0;
  /// Some tableau state of the set was compatible with the letter. False
  /// means the residual is already propositionally inconsistent with the new
  /// state — the compile-once analogue of the residual collapsing to `false`.
  bool any_survivor = false;
  /// Some surviving state admits an accepting infinite extension: the residual
  /// after this letter is satisfiable. This is the monitor's
  /// potential-satisfaction verdict, with no per-update CheckSat.
  bool live = false;
};

/// \brief Counters of the offline minimization pass (MinimizeNow). `runs` is
/// cumulative; the remaining fields describe the most recent run.
struct MinimizeStats {
  uint64_t runs = 0;             ///< MinimizeNow calls over the system's lifetime
  uint64_t tableau_states = 0;   ///< tableau states covered by the last run
  uint64_t tableau_classes = 0;  ///< bisimulation classes after the last run
  uint64_t state_sets = 0;       ///< interned state-sets covered by the last run
  uint64_t collapsed_sets = 0;   ///< sets remapped to a lower representative
};

/// \brief Size and cache counters of one compiled transition system,
/// cumulative over its lifetime (which may span several monitors when shared
/// through an AutomatonCache).
struct TransitionSystemStats {
  uint64_t num_states = 0;       ///< interned tableau states
  uint64_t num_edges = 0;        ///< materialized successor edges
  uint64_t num_state_sets = 0;   ///< interned state-sets
  uint64_t num_signatures = 0;   ///< interned letter signatures
  uint64_t steps = 0;            ///< Step calls
  uint64_t memo_hits = 0;        ///< Step calls answered by the memo table
  uint64_t live_queries = 0;     ///< lazy liveness searches actually run
  uint64_t alphabet_size = 0;    ///< atoms mentioned by the closure
};

/// \brief A formula compiled once into a closure-indexed automaton: tableau
/// states are flat bitsets over the Fischer–Ladner closure, a *state-set* is
/// the set of tableau states consistent with the letters consumed so far, and
/// one update is a memoized `(state-set id, letter signature) -> state-set id`
/// transition.
///
/// Semantics (the Lemma 4.2 correspondence): after pushing letters
/// w_0..w_t through `initial()`, the returned step's `live` flag equals
/// satisfiability of Progress(...Progress(f, w_0)..., w_t) — what the
/// progression backend obtains by rewriting the formula and re-running
/// CheckSat per update. Liveness of a tableau state ("an accepting infinite
/// path exists") is precomputed per *state*, so the per-update check is a
/// survivor scan instead of a tableau search.
///
/// Compilation is lazy for syntactically safe formulas (no Until/Eventually in
/// NNF): states, edges and liveness bits materialize on demand and are
/// memoized, so only the part of the automaton the history actually visits is
/// ever built — mirroring the safety fast path. Non-safe formulas eagerly
/// materialize the reachable graph and resolve liveness by self-fulfilling-SCC
/// analysis at compile time.
///
/// Letter signatures are projected through a canonical letter numbering
/// (ptl::Canonicalize), so one compiled system serves every formula that is an
/// injective letter-renaming of the compiled one — the same equivalence the
/// verdict cache exploits. All methods are thread-safe (one internal mutex);
/// state-set and signature ids are only meaningful within this instance.
class TransitionSystem {
 public:
  ~TransitionSystem();
  TransitionSystem(const TransitionSystem&) = delete;
  TransitionSystem& operator=(const TransitionSystem&) = delete;

  /// Compiles `f` (NNF'd internally). Budgets come from `options` (max_states,
  /// max_expansions, max_branch_depth); the verdict cache and engine fields
  /// are ignored. Fails with ResourceExhausted when a non-safe formula's
  /// reachable graph exceeds the budgets.
  ///
  /// The compiled system's closure keeps raw node pointers into `factory`;
  /// the caller must keep the factory alive for the system's lifetime. When
  /// the system may outlive the caller (it is placed in an AutomatonCache and
  /// lazily expanded by later hits), use the shared_ptr overload, which pins
  /// the factory.
  static Result<std::shared_ptr<TransitionSystem>> Compile(
      Factory* factory, Formula f, const TableauOptions& options = {});
  static Result<std::shared_ptr<TransitionSystem>> Compile(
      std::shared_ptr<Factory> factory, Formula f,
      const TableauOptions& options = {});

  /// State-set id of the initial cover — the basis before any letter.
  uint32_t initial() const { return initial_set_; }

  /// Canonical-index -> concrete-letter mapping of the formula this system was
  /// compiled from. Callers that compiled directly (not through a cache) pass
  /// this to Step/Live.
  const std::vector<PropId>& default_letters() const { return default_letters_; }

  /// True when the compiled formula was syntactically safe (lazy mode).
  bool safe() const { return safe_; }

  /// True when the compiled formula is in the release fragment (safe and
  /// X-free, ptl::IsReleaseFragment): after any letter L its state-sets are
  /// live iff L^omega satisfies the residual, so liveness bits of systems
  /// stepped through the same word may be ANDed across shared atoms.
  /// Classified once per compiled shape, from the same NNF as safe().
  bool release_fragment() const { return release_fragment_; }

  /// Pushes one letter: survivors of `set_id` under `letter`, their successor
  /// union, and the liveness verdict. Memoized on (set id, letter signature).
  /// `letters` maps canonical letter indices to the caller's PropIds (use
  /// default_letters() when not sharing through a cache).
  Result<TransitionStep> Step(uint32_t set_id, const PropState& letter,
                              const std::vector<PropId>& letters);
  Result<TransitionStep> Step(uint32_t set_id, const PropState& letter);

  /// Satisfiability at the current basis: does some state of the set admit an
  /// accepting infinite path? `Live(initial())` decides the compiled formula
  /// itself (used for the empty-word case).
  Result<bool> Live(uint32_t set_id);

  /// Interns the letter signature of `w` projected through `letters` without
  /// stepping anything. Cohort lockstep stepping computes one signature per
  /// transaction and fans it across many StepSig calls; the returned ids are
  /// the ones Step's transition memo is keyed by. The pointer overload serves
  /// flattened structure-of-arrays letter storage (`letters[0..num_letters)`
  /// maps canonical indices to the caller's PropIds).
  Result<uint32_t> InternSignature(const PropState& w,
                                   const std::vector<PropId>& letters);
  Result<uint32_t> InternSignature(const PropState& w, const PropId* letters,
                                   size_t num_letters);

  /// Pushes one already-interned signature through `set_id`: identical to
  /// Step minus the letter projection, sharing the same memo. This is the
  /// per-slot cohort operation — O(1) on a memo hit regardless of alphabet.
  Result<TransitionStep> StepSig(uint32_t set_id, uint32_t sig_id);

  /// Offline minimization: partition refinement (Hopcroft/Moore style) over
  /// the tableau states discovered so far — initial classes by resolved
  /// liveness and exact literal masks, unexpanded states pinned to singleton
  /// classes (their edges are unknown), refined by successor-class sets to a
  /// fixpoint — then lifted to interned state-sets: two sets are equivalent
  /// iff their member-class sets coincide, and each maps to the lowest set id
  /// of its class. Representatives are valid under EVERY letter
  /// (compatibility depends only on the class-invariant literal masks, and
  /// liveness is class-invariant), so callers may remap live state ids at any
  /// time without replaying; ids interned after a run map to themselves until
  /// the next run. Step/StepSig canonicalize newly computed successors
  /// through the representative map, so symmetric cohorts converge onto the
  /// collapsed state space without caller-side work.
  MinimizeStats MinimizeNow();

  /// Representative state-set id of `set_id` per the last MinimizeNow run
  /// (identity before the first run and for ids interned since).
  uint32_t Representative(uint32_t set_id) const;

  /// Interned state-set count (the cohort minimization trigger reads this
  /// instead of building a full stats() struct).
  uint64_t num_state_sets() const;

  MinimizeStats minimize_stats() const;

  TransitionSystemStats stats() const;

 private:
  struct Rep;

  TransitionSystem();

  std::unique_ptr<Rep> rep_;
  mutable std::mutex mu_;
  uint32_t initial_set_ = 0;
  bool safe_ = false;
  bool release_fragment_ = false;
  std::vector<PropId> default_letters_;
  /// Keeps the compiling factory (and so every node the closure references)
  /// alive when the system is shared beyond the caller's scope. Null for the
  /// raw-pointer Compile overload.
  std::shared_ptr<Factory> factory_keepalive_;
};

/// \brief Handle returned by AutomatonCache::Get: the (possibly shared)
/// compiled system plus the caller's canonical-index -> letter mapping, which
/// Step needs to project concrete PropStates onto the shared alphabet.
struct AutomatonHandle {
  std::shared_ptr<TransitionSystem> ts;
  std::vector<PropId> letters;
};

/// \brief Counters of the automaton cache, mirroring VerdictCacheStats.
struct AutomatonCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t capacity = 0;
};

/// \brief Bounded, thread-safe LRU cache of compiled transition systems keyed
/// by canonical formula form (letter-renaming-invariant, cross-factory) — the
/// same injection pattern as VerdictCache. Share one instance across monitors
/// and trigger managers through `CheckOptions::automaton_cache`: grounding
/// instances over different domain elements are letter-renamings of one
/// another, so they all run on one compiled automaton and one transition memo.
class AutomatonCache {
 public:
  explicit AutomatonCache(size_t capacity = 128);

  /// Returns the compiled system for `f`, compiling (outside the cache lock)
  /// on miss. Formulas too large to canonicalize bypass the cache and compile
  /// privately. The shared_ptr overload pins the compiling factory inside the
  /// cached system — required whenever the factory is shorter-lived than the
  /// cache (per-check grounding factories); the raw-pointer overload is for
  /// factories that outlive the cache.
  Result<AutomatonHandle> Get(std::shared_ptr<Factory> factory, Formula f,
                              const TableauOptions& options = {});
  Result<AutomatonHandle> Get(Factory* factory, Formula f,
                              const TableauOptions& options = {});

  AutomatonCacheStats stats() const;

 private:
  struct CacheEntry {
    std::shared_ptr<TransitionSystem> ts;
#ifndef NDEBUG
    // Debug builds retain the canonical key to detect fingerprint collisions.
    std::string debug_key;
#endif
  };

  mutable std::mutex mu_;
  size_t capacity_;
  // Fingerprint-keyed slab LRU (see VerdictCache): hits hash 16 bytes and
  // allocate nothing, where the string-keyed index re-hashed the whole
  // canonical key per lookup.
  flat::FlatLru<flat::Fp128, CacheEntry> lru_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace ptl
}  // namespace tic

#endif  // TIC_PTL_TRANSITION_SYSTEM_H_
