#ifndef TIC_CHECKER_MONITOR_H_
#define TIC_CHECKER_MONITOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/extension.h"
#include "checker/pointalg.h"
#include "checker/provenance.h"
#include "common/flat/flat_map.h"
#include "common/telemetry/telemetry.h"
#include "common/flat/flat_set.h"
#include "common/flat/small_vec.h"
#include "common/result.h"
#include "db/update.h"
#include "fotl/factory.h"
#include "past/past_monitor.h"
#include "ptl/progress.h"
#include "ptl/transition_system.h"

namespace tic {
namespace checker {

// MonitorMode lives in extension.h (needed by provenance replay helpers);
// re-exported here through the include above.

/// \brief Verdict after one transaction.
struct MonitorVerdict {
  size_t time = 0;  ///< instant of the newly appended state
  bool potentially_satisfied = false;
  /// True once the constraint can never be satisfied again regardless of
  /// future updates (safety: violations are permanent).
  bool permanently_violated = false;
  uint64_t residual_size = 0;
  size_t num_instances = 0;
  /// Distinct residual formulas progressed this update. Instances over
  /// symmetric elements share a hash-consed residual, so
  /// `num_instances - num_residual_classes` progression calls were saved by
  /// deduplication.
  size_t num_residual_classes = 0;
  /// Tableau size counters of *this update's* satisfiability check alone
  /// (zero on the lazy path and once the monitor is dead — no check runs).
  ptl::TableauStats tableau_stats;
  /// Running totals of the per-update counters above across the monitor's
  /// lifetime. CheckSat reports per-call stats, so the monitor accumulates
  /// explicitly; use these for end-of-run cost reporting.
  ptl::TableauStats cumulative_tableau_stats;
  /// Cumulative counters of the shared tableau verdict cache.
  ptl::VerdictCacheStats verdict_cache_stats;
  /// Backend that produced this verdict (kAutomaton only in kEager mode).
  MonitorBackend backend = MonitorBackend::kProgression;
  /// Lifetime counters of the residual-graph automaton driving this monitor
  /// (zero on the progression backend): states = distinct residuals reached,
  /// live_queries = tableau runs (one per state, ever). `memo_hits / steps`
  /// is the transition-cache hit rate; in steady state it approaches 1.
  ptl::TransitionSystemStats automaton_stats;
  /// Cumulative counters of the shared compiled-automaton cache, when one was
  /// injected through CheckOptions (batch/trigger-level sharing).
  ptl::AutomatonCacheStats automaton_cache_stats;
  /// Cohort lockstep stepping (CheckOptions::cohort_stepping): number of
  /// letter-disjoint cohorts and the instances stepped through them in
  /// structure-of-arrays form. Instances sharing ground atoms still step
  /// through the joint residual graph and are not counted here.
  size_t num_cohorts = 0;
  size_t num_cohort_instances = 0;
  /// Instances the tractable-fragment router stepped through the
  /// point-algebra backend this update (CheckOptions::router): watched-literal
  /// clause evaluation instead of residual-graph transitions.
  size_t num_pointalg_instances = 0;
  /// Verdict provenance (CheckOptions::provenance): populated on the update
  /// that flips the monitor to permanently violated, then re-attached to
  /// every subsequent (dead) verdict. `num_culprits` counts ALL culprit
  /// instances identified; `diagnoses` holds at most
  /// Monitor::kMaxExplanations of them (one Diagnosis each).
  size_t num_culprits = 0;
  std::shared_ptr<std::vector<Diagnosis>> diagnoses;
  /// The captured diagnoses, or an empty vector when none were assembled
  /// (provenance off, monitor still live, or pre-first-update).
  const std::vector<Diagnosis>& explanations() const;
};

/// \brief Incremental temporal integrity monitor for a universal safety
/// sentence: the production-facing API.
///
/// Maintains, across updates, one progression residual per grounding instance
/// f : {x1..xk} -> M (Theorem 4.1). After each transaction it only
/// (a) progresses every live residual through the single new propositional
/// state and (b) grounds + catches up instances created by newly relevant
/// elements, then re-decides satisfiability of the conjunction. This makes the
/// per-update cost O(|phi_D|) amortized plus one 2^O(|residual|)
/// satisfiability check — the incremental reading of Theorem 4.2.
class Monitor {
 public:
  /// `phi` must be a universal safety sentence over `vocab`.
  static Result<std::unique_ptr<Monitor>> Create(
      std::shared_ptr<fotl::FormulaFactory> fotl_factory, fotl::Formula phi,
      std::vector<Value> constant_interp = {}, CheckOptions options = {},
      MonitorMode mode = MonitorMode::kEager);

  /// Applies `txn` (appending one state to the history) and re-checks.
  Result<MonitorVerdict> ApplyTransaction(const Transaction& txn);

  /// Checkpointed history compaction (Theorem 4.1's residual reading): folds
  /// every history state but the current one into the monitor's residual
  /// state, making epoch resets, fresh-element catch-up, and snapshots
  /// O(state) instead of O(t). Fresh elements arriving after the fold are
  /// caught up from pre-enumerated *z-patterns* — the checkpoint residuals of
  /// assignments over stand-ins kept as letters — by renaming, exactly the
  /// paper's indistinguishability argument. Verdicts are unaffected;
  /// `verdict.time` keeps counting absolute instants via time_base().
  /// ResourceExhausted (monitor unchanged) when the pattern enumeration would
  /// exceed kMaxCompactEnumeration.
  ///
  /// History-less monitoring (the paper's Section 6 question) is this call
  /// after every update: the monitor then holds one database state, the
  /// checkpoint, and the word since it, whatever the history length.
  Status Compact();

  /// Absolute instant of physical history state 0: the number of history
  /// states folded away by Compact() so far.
  size_t time_base() const {
    return past_ != nullptr ? past_->time_base() : time_base_;
  }

  /// The monitored history so far. On the router's past route the history
  /// lives inside the delegated past evaluator.
  const History& history() const {
    return past_ != nullptr ? past_->history() : history_;
  }

  /// Latest verdict (valid after the first transaction).
  const MonitorVerdict& last_verdict() const { return last_verdict_; }

  /// Effective options after Create's defaulting (pool, verdict cache).
  const CheckOptions& options() const { return options_; }

 private:
  friend class MonitorCheckpoint;

  Monitor(std::shared_ptr<fotl::FormulaFactory> fotl_factory, fotl::Formula phi,
          History history, CheckOptions options, MonitorMode mode);

  // Progresses every running residual through `w`: residuals are partitioned
  // into equivalence classes by hash-consed identity, one representative per
  // class is progressed (in parallel when a thread pool is configured), and
  // the results are fanned back out to running_residuals_.
  Status ProgressAll(const ptl::PropState& w, size_t* num_classes);

  // Builds the propositional state for history state `t`, creating letters on
  // demand (mirrors Grounding::BuildWord, incrementally).
  ptl::PropState PropStateOf(size_t t);

  // Grounds the matrix under `assignment` (kSimplified: equalities folded,
  // stand-in atoms false). Atoms mentioning a stand-in with index >=
  // `keep_z_from` are KEPT as letters instead of folding — the compaction
  // patterns use indices k.. for future-fresh elements, so their letters
  // survive grounding while the real stand-ins 0..k-1 still fold.
  Result<ptl::Formula> GroundMatrix(const std::vector<GroundElem>& assignment,
                                    size_t keep_z_from = SIZE_MAX);
  ptl::PropId Letter(PredicateId pred, const std::vector<Value>& codes);

  // Progresses `f` through the whole stored word (RLE fixpoint per run).
  Result<ptl::Formula> ProgressThroughWord(ptl::Formula f);

  // Creates one instance per assignment over known_relevant_ + `fresh`
  // (sorted, disjoint from known_relevant_) + stand-ins that touches a fresh
  // element, with its basis (Instance::residual), and merges `fresh` into
  // known_relevant_.
  Status CreateFreshInstances(const std::vector<Value>& fresh);

  // --- Checkpointed history compaction (Monitor::Compact) ---
  // Enumerates the compaction patterns: assignments over
  // compact_relevant_ + real stand-ins Z(0..k-1) + kept stand-ins Z(k..2k-1)
  // with at least one kept stand-in, in canonical (first-occurrence) kept
  // order, each mapped to its residual at the checkpoint. Builds into fresh
  // structures and swaps at the end, so a second compaction can read the
  // previous checkpoint's patterns while building.
  Status BuildCompactPatterns();
  // Residual at the checkpoint of an assignment that mentions an element
  // unknown at the fold (not in compact_relevant_, or a stand-in with index
  // >= k): unknown elements are canonically renumbered onto the kept
  // stand-ins, the matching pattern residual is looked up, and its
  // kept-stand-in letters are renamed back to the real element codes.
  // Replaces GroundMatrix as a fresh instance's basis once compacted_ — the
  // folded prefix can no longer be replayed.
  Result<ptl::Formula> CompactBaseResidual(
      const std::vector<GroundElem>& assignment);
  // Renames every letter whose key mentions a source code of `code_map` to
  // the letter with the destination code substituted (minting on demand).
  ptl::Formula RenameResidualCodes(
      ptl::Formula f, const std::unordered_map<Value, Value>& code_map);

  // Automaton backend (kEager only): advances the shared transition system
  // through the new state, recompiling the joint formula and replaying the
  // stored word first when fresh-element instances changed it.
  Status AutomatonApply(bool joint_changed, const ptl::PropState& w,
                        MonitorVerdict* verdict);

  ptl::Formula RenameLetters(ptl::Formula f,
                             const std::unordered_map<ptl::PropId, ptl::PropId>& map);

  std::shared_ptr<fotl::FormulaFactory> ffac_;
  fotl::Formula phi_;
  std::vector<fotl::VarId> external_;
  fotl::Formula matrix_ = nullptr;
  CheckOptions options_;
  MonitorMode mode_;

  // Run-length-encoded propositional word: a run of identical consecutive
  // letters (recurring database states — the steady-state common case)
  // shares one entry, so an empty transaction appends nothing and copies
  // nothing, and fresh-element replays cost one transition per RUN once the
  // stepped state reaches its per-letter fixpoint, not one per past state.
  struct WordEntry {
    ptl::PropState w;
    uint64_t repeat = 1;
  };
  std::vector<WordEntry> word_;

  // Letter of the current history state, maintained incrementally from each
  // transaction's ops (O(delta) instead of an O(database) rescan per
  // update). Initialized from PropStateOf on the first update so a non-empty
  // starting history is covered.
  ptl::PropState cur_letter_;
  bool cur_letter_valid_ = false;

  History history_;
  std::vector<Value> known_relevant_;  // sorted
  // Absolute instant of physical history state 0: states folded by Compact().
  size_t time_base_ = 0;
  ptl::PropVocabularyPtr prop_vocab_;
  std::shared_ptr<ptl::Factory> prop_factory_;

  struct LetterKey {
    PredicateId pred;
    std::vector<Value> codes;
    bool operator==(const LetterKey& o) const {
      return pred == o.pred && codes == o.codes;
    }
  };
  struct LetterKeyHash {
    size_t operator()(const LetterKey& k) const;
  };
  flat::FlatMap<LetterKey, ptl::PropId, flat::Remixed<LetterKeyHash>> letters_;
  LetterKey letter_probe_;  // scratch for allocation-free lookups
  // Append-only log of minted letters, indexed by mint order. Flat-table
  // entries relocate on insert, so the per-code index below stores indices
  // into this log, never pointers into `letters_`.
  struct LetterEntry {
    LetterKey key;
    ptl::PropId id;
  };
  std::vector<LetterEntry> letter_log_;
  // Value code -> letters (log indices) whose key mentions it. Lets
  // fresh-element renaming visit only the letters actually touched instead of
  // snapshotting the map.
  flat::FlatMap<Value, std::vector<uint32_t>> letters_by_code_;

  // One instance per grounding assignment; the monitored condition is the
  // conjunction of their formulas. `residual` is the instance's formula at
  // the last checkpoint, in every backend: its grounding before the first
  // Compact(), then what Compact() rebased it to (or, for an instance created
  // after a fold, its z-pattern residual). Progressing it through word_ gives
  // the formula now; each engine keeps that stepped state itself (automaton
  // state ids, cohort slots, point-algebra units, running_residuals_).
  struct Instance {
    std::vector<GroundElem> assignment;
    ptl::Formula residual;
  };
  std::vector<Instance> instances_;
  struct AssignmentHash {
    size_t operator()(const std::vector<GroundElem>& a) const;
  };
  struct AssignmentEq {
    bool operator()(const std::vector<GroundElem>& a,
                    const std::vector<GroundElem>& b) const;
  };

  // --- Compaction checkpoint (Monitor::Compact) ---
  bool compacted_ = false;
  std::vector<Value> compact_relevant_;  // known_relevant_ at the fold, sorted
  // Pattern residuals for fresh-element catch-up after the fold: one per
  // canonical assignment with at least one kept stand-in (index k..2k-1),
  // holding the residual the assignment WOULD have reached at the checkpoint
  // had its unknown elements been watched from the start (they are
  // indistinguishable from the kept stand-ins over the folded prefix).
  struct CompactPattern {
    std::vector<GroundElem> assignment;
    ptl::Formula residual;
  };
  std::vector<CompactPattern> compact_patterns_;
  flat::FlatMap<std::vector<GroundElem>, size_t, flat::Remixed<AssignmentHash>,
                AssignmentEq>
      compact_pattern_index_;
  // Cap on the pattern-enumeration odometer ((R + 2k)^k assignments):
  // Compact() returns ResourceExhausted, monitor unchanged, beyond it.
  static constexpr size_t kMaxCompactEnumeration = 200000;

  bool dead_ = false;  // permanently violated
  ptl::TableauStats cumulative_tableau_stats_;  // totals across all updates
  MonitorVerdict last_verdict_;

  // --- Verdict provenance (CheckOptions::provenance) ---
  static constexpr size_t kMaxExplanations = 8;   // diagnoses per flip
  static constexpr size_t kTrajectoryK = 8;       // trajectory tail length
  static constexpr size_t kMaxReplayInstances = 64;  // culprit replay cap
  static constexpr size_t kMaxSatProbes = 8;      // culprit CheckSat cap
  // Letter flips of the CURRENT update (letter id, new value), captured in
  // the incremental letter loop and decoded to ground atoms only at a flip
  // to violated. Cleared per update; capacity is kept warm, so the
  // steady-state hot path never allocates for it.
  std::vector<std::pair<ptl::PropId, bool>> last_delta_;
  // Cohort slots whose table cell died this update: the owning instance
  // indices (capped at kMaxExplanations) and the uncapped total. Filled by
  // CohortStepAll only on the (terminal) death update.
  std::vector<uint32_t> dead_scratch_;
  size_t dead_total_ = 0;
  // Diagnoses of the flip, shared with every verdict issued at or after it.
  std::shared_ptr<std::vector<Diagnosis>> explanations_;
  size_t num_culprits_ = 0;
  // Verdict-change edge detection for the flight recorder.
  bool any_verdict_ = false;
  bool last_sat_ = false;
#ifdef TIC_TELEMETRY_ENABLED
  std::unique_ptr<telemetry::StallWatchdog> watchdog_;  // CheckOptions::watchdog_ms
#endif

  // Assembles MonitorVerdict provenance at the alive->dead flip: identifies
  // culprit instances (cohort death bits, literal `false` residuals, else a
  // capped per-instance replay of the stored word), builds one Diagnosis per
  // culprit (capped), and falls back to a single joint Diagnosis when no
  // individual instance explains the violation (shared-letter interaction).
  // `joint_residual` is the residual the joint path died on (may be null).
  Status BuildExplanations(size_t t, const ptl::PropState& w,
                           ptl::Formula joint_residual, MonitorVerdict* verdict);
  Result<Diagnosis> DiagnoseInstance(uint32_t idx, size_t t,
                                     const ptl::PropState& w);
  // Progresses `basis` (an instance's formula at the last checkpoint)
  // through the stored word, keeping the last-K trajectory at absolute
  // times; fills d->trajectory / d->residual / d->last_live and sets
  // *fatal_w to the letter under which the residual first collapsed (the
  // final letter when it never literally reached `false`).
  Status BuildTrajectory(ptl::Formula basis, Diagnosis* d,
                         ptl::PropState* fatal_w);
  // Decodes last_delta_ into d->delta using the letter names.
  void CaptureDelta(Diagnosis* d) const;
  // Records a kVerdictChange flight-recorder event on every edge.
  void NoteVerdict(const MonitorVerdict& v);

  // --- Automaton backend state (kEager + MonitorBackend::kAutomaton) ---
  // The monitor runs the *residual-graph automaton* of the joint conjunction
  // of the instances' checkpoint formulas: each distinct residual the history
  // can reach is one state (hash-consed formula identity), liveness is
  // decided once per state (CheckSat through the shared verdict cache, not
  // per update), and a transition is a memoized `(state id, letter
  // signature) -> state id` lookup. Recurring database states — the common
  // steady case — never rewrite a formula or run a tableau again.
  //
  // Why residuals and not determinized closure-state sets: the joint cover
  // of N grounded instances is the consistency-pruned *product* of the
  // per-instance covers (exponential in N — the FIFO constraint over a
  // handful of orders already exceeds any expansion budget), while the
  // residual graph only materializes states the actual history visits.
  // The closure-bitset ptl::TransitionSystem covers the single-pattern
  // cases (batch checks, trigger substitution sweeps) where the cover is
  // small and renaming-sharing pays off.
  //
  // Fresh elements change the joint formula: their arrival starts a new
  // epoch (graph reset) and replays `word_`, one transition per past state.
  MonitorBackend backend_ = MonitorBackend::kProgression;  // effective backend
  ptl::Formula joint_ = nullptr;       // joint formula of the current epoch
  size_t num_joint_classes_ = 0;       // distinct grounded originals in joint_
  struct AutoState {
    ptl::Formula residual;
    int8_t live;  // -1 unknown, 0 dead, 1 live — decided lazily, then cached
  };
  std::vector<AutoState> auto_states_;
  flat::FlatMap<ptl::Formula, uint32_t> auto_state_ids_;
  std::vector<ptl::PropId> auto_alphabet_;  // atoms of joint_, stable order
  flat::FlatMap<std::string, uint32_t> auto_sigs_;  // packed letter bits
  flat::FlatMap<uint64_t, uint32_t> auto_memo_;  // (state, sig) -> state
  uint32_t auto_current_ = 0;
  uint32_t auto_prev_ = 0;  // state entering the latest step (provenance)
  uint64_t auto_steps_ = 0;
  uint64_t auto_memo_hits_ = 0;
  uint64_t auto_live_queries_ = 0;  // CheckSat calls (state interns)
  std::string sig_scratch_;
  // Per-update scratch, cleared (buckets kept warm) instead of re-allocated.
  flat::FlatSet<Value> active_scratch_;  // this state's active domain
  flat::FlatMap<ptl::Formula, size_t> class_of_scratch_;  // ProgressAll classes

  // --- Progression backend state (MonitorBackend::kProgression) ---
  // Running residuals, one per instance: the instance's checkpoint formula
  // progressed through word_. Instances past the end of the table (the
  // initial set, fresh ones, all of them after a restore) are caught up by
  // replaying the word from their basis on the next update. Compact() leaves
  // the table alone — a fold changes the basis and the word, not "now".
  std::vector<ptl::Formula> running_residuals_;
  // ProgressAll's persistent residual equivalence classes: maintained across
  // updates instead of being rebuilt from formula identity every transaction.
  // Progression is a function of the residual alone, so class membership only
  // changes when (a) two classes' progressed residuals collide — merged
  // in-place after each update — or (b) running residuals are added, which
  // invalidates the partition wholesale (progress_classes_instances_ guards).
  struct ProgressClass {
    ptl::Formula residual;
    std::vector<uint32_t> members;  // instance indices
  };
  std::vector<ProgressClass> progress_classes_;
  size_t progress_classes_instances_ = 0;  // running_residuals_.size() when built

  // --- Cohort lockstep state (kAutomaton + CheckOptions::cohort_stepping) ---
  // Instances whose residuals share no ground atoms (union-find over PropIds)
  // are *letter-disjoint*: sat(AND of their residuals) equals AND of their
  // individual sat verdicts, because models over disjoint atom sets compose.
  // Each such singleton instance compiles through the renaming-invariant
  // AutomatonCache, so symmetric instances land on one shared
  // ptl::TransitionSystem and form a *cohort*: current state-set ids in
  // structure-of-arrays form, advanced per transaction with ONE letter
  // signature per touched slot plus a word-parallel gather (flat::GatherRow)
  // over a dense `state x signature` cell table. Untouched slots — the
  // overwhelming steady-state majority — share the all-false signature, so a
  // transaction that touches none of a cohort's letters advances the whole
  // cohort with one table row gather (or one cell read when all slots sit in
  // the same state). Instances that DO share atoms keep the exact joint
  // residual-graph path below.
  enum class Placement : uint8_t {
    kJoint,     // steps through the joint residual graph (shares atoms, or
                // compile fell back: budget blowup, false residual)
    kCohort,    // letter-disjoint, stepped in SoA lockstep
    kInert,     // residual is `true`: never violated, nothing to step
    kPointAlg,  // point-algebra fragment (CheckOptions::router): stepped by
                // the watched-literal PointBackend, no automaton at all
  };
  struct Cohort {
    std::shared_ptr<ptl::TransitionSystem> ts;
    uint32_t stride = 0;  // canonical letters per slot
    // SoA per slot: current state-set id, owning instance index, and the
    // canonical-index -> PropId letter block at [slot*stride, (slot+1)*stride).
    flat::SmallVec<uint32_t, 8> states;
    flat::SmallVec<uint32_t, 8> members;
    flat::SmallVec<ptl::PropId, 8> letters;
    // Hot slots — slots with at least one TRUE letter in the current state —
    // maintained persistently from each transaction's letter flips (O(delta)
    // per update) instead of rescanning the letter's trues per step:
    // hot_count[slot] counts true letters, hot_slots lists slots with a
    // non-zero count (swap-remove order, hot_pos[slot] = index in hot_slots).
    flat::SmallVec<uint32_t, 8> hot_count;
    flat::SmallVec<uint32_t, 8> hot_slots;
    flat::SmallVec<uint32_t, 8> hot_pos;
    uint32_t zero_sig = 0;  // interned all-false signature id
    // Dense row-major `rows x cols` cell table over (state-set id, signature
    // id): cell = live<<31 | any_survivor<<30 | next, kCellUndiscovered until
    // first resolved through TransitionSystem::StepSig. Monitor-side (not in
    // the TS) so the gather runs without the TS mutex.
    std::vector<uint32_t> table;
    uint32_t rows = 0;
    uint32_t cols = 0;
    // All slots sit in states[0] (slots past 0 may be stale): a transaction
    // touching nothing steps the whole cohort with ONE cell read. Slots are
    // materialized (fill with states[0]) before the first gather.
    bool uniform = true;
    uint64_t sets_at_minimize = 0;  // num_state_sets at the last MinimizeNow
  };
  static constexpr uint32_t kCellNextMask = (1u << 30) - 1;
  static constexpr uint32_t kCellUndiscovered = 0xFFFFFFFFu;
  std::vector<Cohort> cohorts_;
  flat::FlatMap<const void*, uint32_t> cohort_by_ts_;  // TS ptr -> cohort idx
  std::vector<Placement> placement_;  // per instance; empty = cohorting off
  bool cohorts_built_ = false;
  size_t num_joint_ = 0;         // instances with Placement::kJoint
  size_t num_cohort_slots_ = 0;  // instances with Placement::kCohort
  // PropId -> packed (cohort << 32 | slot). Letter-disjointness makes the
  // owner unique, so routing a letter flip to its hot slot is one probe.
  flat::FlatMap<ptl::PropId, uint64_t> cohort_touch_;
  std::vector<uint32_t> gather_scratch_;  // per-cohort cell buffer, kept warm
  // Persistent union-find over instance indices, keyed by shared atoms:
  // atom_owner_ maps each residual atom to the first instance that mentioned
  // it, dsu_min_ tracks the lowest member index per component (placement_ of
  // that member tells whether a merge demotes a cohorted instance).
  std::vector<uint32_t> dsu_parent_;
  std::vector<uint32_t> dsu_size_;
  std::vector<uint32_t> dsu_min_;
  flat::FlatMap<ptl::PropId, uint32_t> atom_owner_;
  uint64_t cohort_steps_ = 0;       // slots advanced, lifetime
  uint64_t cohort_table_hits_ = 0;  // slots answered by the dense table
  std::vector<ptl::PropId> atoms_scratch_;  // AtomsOf output, reused

  // Tractable-fragment router (CheckOptions::router). Point-algebra-fragment
  // instances (whole letter-connected components only) step through this
  // watched-literal backend instead of any automaton; pa_routing_ caches
  // whether the router is active for this monitor. When the constraint is a
  // closed `G A` with A past (and no universal prefix), the whole monitor
  // delegates to past_ instead and none of the machinery above runs.
  PointBackend pa_;
  bool pa_routing_ = false;
  std::vector<const ptl::PaShape*> pa_shape_;  // per instance, null = no match
  std::vector<uint8_t> pa_comp_ok_;  // per DSU root: every member in fragment
  std::unique_ptr<past::PastMonitor> past_;

  // Registers instance `idx` (shape already in pa_shape_) with the PA backend
  // and catches it up through the stored word, current letter included.
  void RoutePointAlg(uint32_t idx);

  // Routes one current-letter value change to its owning cohort slot's hot
  // count (no-op for letters no cohort owns). Called for every flip the
  // incremental letter update detects. Returns the packed
  // `cohort << 32 | slot` owner, or ~0 when no cohort owns the letter —
  // the flight recorder logs it with the flip.
  uint64_t OnLetterFlip(ptl::PropId p, bool value);

  uint32_t DsuFind(uint32_t i);
  // Unions the components of `a` and `b`; sets *demoted when the merged
  // component absorbs a previously cohorted instance (slow-path trigger).
  void DsuUnion(uint32_t a, uint32_t b, size_t first_new, bool* demoted);
  // Distinct residual atoms of `f` into atoms_scratch_ (explicit stack).
  void AtomsOf(ptl::Formula f);
  // Places instances [first_new, instances_.size()): extends the union-find,
  // appends still-singleton instances to cohorts (replaying word_ minus the
  // current state), and routes the rest to the joint path. A merge that
  // demotes a cohorted instance rebuilds all placements from scratch.
  // Returns true when joint membership changed (epoch reset needed).
  Result<bool> PlaceInstances(size_t first_new);
  Result<Placement> PlaceOne(uint32_t idx);
  Status RebuildPlacements();
  // Advances every cohort through `w`; *all_live = AND of per-slot liveness.
  Status CohortStepAll(const ptl::PropState& w, MonitorVerdict* verdict,
                       bool* all_live);
  // Dense-table cell for (state, sig), resolving through StepSig on first
  // discovery; grows the table as needed. Sets *discovered on a resolve.
  Result<uint32_t> CohortCell(Cohort* ch, uint32_t state, uint32_t sig,
                              bool* discovered);
  void EnsureCohortTable(Cohort* ch, uint32_t rows_needed, uint32_t cols_needed);

  // Interns `f` as an automaton state (no tableau work).
  uint32_t AutoIntern(ptl::Formula f);
  // Liveness of state `sid`, decided by one CheckSat on first query and
  // cached forever after. Lazy on purpose: epoch replay passes through
  // intermediate states whose liveness is never reported, and running the
  // tableau there would be work the progression backend never does.
  Result<bool> AutoLive(uint32_t sid, MonitorVerdict* verdict);
  // One memoized transition; on miss, progresses and interns the successor.
  Result<uint32_t> AutoStep(uint32_t sid, const ptl::PropState& w);
  // Letter-signature id of `w` over the epoch alphabet.
  uint32_t SigOf(const ptl::PropState& w);
};

}  // namespace checker
}  // namespace tic

#endif  // TIC_CHECKER_MONITOR_H_
