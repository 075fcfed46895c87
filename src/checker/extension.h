#ifndef TIC_CHECKER_EXTENSION_H_
#define TIC_CHECKER_EXTENSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "checker/grounding.h"
#include "common/result.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "db/history.h"
#include "fotl/evaluator.h"
#include "fotl/factory.h"
#include "ptl/tableau.h"
#include "ptl/transition_system.h"

namespace tic {
namespace checker {

/// \brief Which per-update decision engine the monitor (and the batch checker
/// when no witness is requested) runs.
enum class MonitorBackend {
  /// Lemma 4.2 taken literally: rewrite every residual through the new state
  /// (`ptl::Progress`), then re-run the tableau satisfiability check on the
  /// residual conjunction from scratch. Always available; produces witnesses.
  kProgression,
  /// Compile-once / memoize-everything automaton. Two cooperating machines,
  /// both advancing by one memoized `(state id, letter signature) -> state id`
  /// lookup per update instead of per-update rewriting + CheckSat:
  ///  - The *monitor* runs the residual-graph automaton of the joint grounded
  ///    conjunction: states are hash-consed residuals, liveness is decided
  ///    once per state (via the shared verdict cache), and recurring database
  ///    states never touch a formula or a tableau again. (The determinized
  ///    closure-state cover of a joint conjunction is the product of the
  ///    per-instance covers — exponential in the instance count — so it is
  ///    not compiled eagerly.)
  ///  - Batch checks and trigger substitution sweeps compile phi_D into a
  ///    closure-bitset ptl::TransitionSystem with precomputed liveness, shared
  ///    across letter renamings through the AutomatonCache; compilation runs
  ///    under a clamped budget and falls back to progression when the cover
  ///    blows up (multi-instance groundings).
  /// Verdict-equivalent to kProgression. Effective for MonitorMode::kEager
  /// and for batch checks with `want_witness == false`; MonitorMode::kLazy
  /// and witness-producing checks fall back to kProgression (kLazy's weak
  /// verdicts are progression-specific, and witness decoding needs the
  /// residual formula).
  kAutomaton,
  /// The tableau-free past evaluator (past::PastMonitor), selected by the
  /// fragment router for closed `G A` constraints with A a past formula and
  /// no universal prefix (Proposition 2.1): one history-less pass per update,
  /// no grounding, no tableau, no stored word. Verdict-equivalent on this
  /// fragment — `G A` with A past is violated exactly when A fails at some
  /// instant <= now, which is also when potential satisfaction is lost.
  kPastStateless,
};

/// \brief How eagerly the monitor detects violations. (Lives here rather than
/// monitor.h so provenance replay helpers can name a mode without the full
/// Monitor.)
///
/// Either mode catches up the instances of a newly relevant element from
/// their formula at the last checkpoint: the grounding, replayed through the
/// stored word, or after Monitor::Compact() the z-pattern residual of the
/// checkpoint (the element was indistinguishable from a stand-in over the
/// folded past, Theorem 4.1). History-less monitoring — the Section 6 open
/// question of a history-less method for universal formulas — is therefore
/// kEager with Compact() after every update: the monitor keeps one database
/// state and a one-letter word, independent of t.
enum class MonitorMode {
  /// Exact potential satisfaction (Theorem 4.2): run the satisfiability check
  /// after every update, detecting violations at the earliest possible time.
  kEager,
  /// The weaker notion implemented by Lipeck & Saake (Section 5): only the
  /// linear-time progression runs per update, so violations are always
  /// detected (the residual collapses to false) but possibly later than the
  /// earliest time. Cheap: no exponential phase per update.
  kLazy,
};

/// \brief Options for the Theorem 4.2 decision procedure.
struct CheckOptions {
  GroundingOptions grounding;
  ptl::TableauOptions tableau;
  /// Require the constraint to pass the syntactic safety test after grounding
  /// (Section 4's results are stated for safety sentences; Lemma 4.1 fails
  /// without safety, e.g. for `forall x . F p(x)`). Disable only for
  /// experiments that deliberately probe non-safety behaviour.
  bool require_safety = true;
  /// Produce a decoded witness extension when the answer is YES.
  bool want_witness = true;

  /// Per-update engine; see MonitorBackend. The automaton backend is the
  /// default: it is verdict-equivalent and amortizes the tableau into a
  /// one-time compile. Select kProgression to force the literal two-phase
  /// procedure (and for witness-producing paths, which use it regardless).
  MonitorBackend backend = MonitorBackend::kAutomaton;
  /// Shared LRU cache of compiled transition systems (keyed by the
  /// renaming-invariant canonical form, like the verdict cache). Used by the
  /// batch/trigger automaton path; when null and the automaton backend is
  /// selected, TriggerManager defaults one. Inject an instance here to share
  /// compiled automata — and their transition memos — across trigger managers
  /// and batch checks. The Monitor's cohort path also compiles through this
  /// cache (per-instance residuals are letter-renamings of one another, so
  /// symmetric instances land on one shared TransitionSystem); when null and
  /// cohort stepping is on, Monitor defaults a private instance. The joint
  /// residual graph remains per-monitor state.
  std::shared_ptr<ptl::AutomatonCache> automaton_cache;

  /// Tractable-fragment router (default on). A static classifier in front of
  /// the monitor dispatches work away from the tableau machinery wherever a
  /// cheaper exact backend applies:
  ///  - Constraints of the form `G A` with A a *past* formula (no universal
  ///    prefix) run entirely on the history-less past evaluator
  ///    (MonitorBackend::kPastStateless) — no grounding, no automaton.
  ///  - Grounded instances whose formulas match the point-algebra fragment
  ///    (conjunctions of order/invariant/trigger/release clauses,
  ///    ptl/fragment.h) step through the watched-literal PointBackend:
  ///    O(letters flipped) per update and allocation-free once warm, instead
  ///    of residual-graph transitions. Only whole letter-connected
  ///    components route (every instance sharing atoms must be in the
  ///    fragment), so the remaining joint/cohort paths never see a routed
  ///    atom. Verdict-equivalent by the fragment's witness property;
  ///    enforced by the `router-diff` differential suite.
  /// Effective in MonitorMode::kEager with the kAutomaton backend; other
  /// modes ignore it.
  bool router = true;
  /// Force the past route even for constraints the router would send to the
  /// universal-safety path (pure-FO `forall* G b` sentences whose bodies the
  /// past evaluator also handles). Diagnostic/differential knob; implies no
  /// potential-satisfaction semantics difference on the overlap fragment.
  bool router_force_past = false;

  /// Step letter-disjoint grounded instances in cohorts: instances whose
  /// residuals share no ground atoms are grouped by compiled automaton
  /// (structure-of-arrays state ids) and advanced per transaction with one
  /// letter signature plus a word-parallel gather over a dense state x
  /// letter-class table (AVX2 when available). Verdict-equivalent to the
  /// joint path by construction — sat(AND of atom-disjoint residuals) equals
  /// AND of per-residual sat — and differentially enforced by the
  /// `cohort-diff` suite. Instances that share atoms still step jointly.
  bool cohort_stepping = true;
  /// Re-run offline automaton minimization (TransitionSystem::MinimizeNow)
  /// whenever a cohort's system has interned this many new state-sets since
  /// the last run; 0 disables minimization. Collapsing bisimilar states keeps
  /// dense cohort tables small on long heterogeneous histories.
  uint32_t cohort_minimize_interval = 24;

  /// Degree of parallelism for the per-update hot paths (Monitor residual
  /// progression, TriggerManager substitution sweeps). 1 = fully sequential.
  /// Parallelism is verdict-invariant: progression is a pure function of the
  /// residual and the new state, so the same residuals come out in any
  /// schedule.
  size_t threads = 1;
  /// Worker pool backing `threads`. When null and threads > 1, Monitor /
  /// TriggerManager construct a private pool with threads - 1 workers (the
  /// calling thread participates in every ParallelFor). Inject one instance
  /// here to share workers across monitors and trigger managers.
  std::shared_ptr<ThreadPool> thread_pool;

  /// When set, Monitor::Create installs this sink as the process-wide
  /// Chrome-trace destination (telemetry::SetTraceSink) and flips telemetry
  /// on, so every span in the pipeline is captured from the first update.
  /// Serialize it with TraceSink::WriteChromeTrace when done. Tracing is
  /// process-global: the last installed sink wins.
  std::shared_ptr<telemetry::TraceSink> trace_sink;

  /// Assemble verdict provenance when an update flips the monitor to
  /// violated: MonitorVerdict::explanations() then carries one Diagnosis per
  /// culprit instance (capped at kMaxExplanations) — the grounded
  /// substitution, the letter delta of the fatal update, the last-K residual
  /// trajectory, and the closure subformula that became unsatisfiable. The
  /// capture runs exactly once, at the flip (a terminal event), so it costs
  /// the steady-state hot path nothing.
  bool provenance = true;

  /// Stall watchdog (opt-in): when > 0, Monitor::Create starts one sampling
  /// thread that watches every ApplyTransaction; an update still open after
  /// this many milliseconds records a `watchdog_fire` flight-recorder event,
  /// dumps the recorder to `watchdog_dump_path` (when set), and notes the
  /// stall on stderr — once per stuck update. Ignored in `-DTIC_TELEMETRY=OFF`
  /// builds (no recorder to dump, and the hot path must stay symbol-free).
  uint64_t watchdog_ms = 0;
  std::string watchdog_dump_path;
};

/// \brief Outcome of a potential-satisfaction check.
struct CheckResult {
  /// The paper's verdict: the history is in Pref(phi) — it has an infinite
  /// extension satisfying phi.
  bool potentially_satisfied = false;

  /// When potentially satisfied and want_witness: a concrete ultimately
  /// periodic extension (the full infinite database: the history states
  /// followed by the decoded future evolution). Its prefix of length
  /// |history| equals the history (Theorem 4.1 decoding direction).
  std::optional<UltimatelyPeriodicDb> witness;

  /// True when the residual collapsed to `false` during the prefix rewriting
  /// phase: the violation is *permanent*, i.e. no earlier verdict could have
  /// been different from this instant on (the safety property at work).
  bool permanently_violated = false;

  GroundingStats grounding_stats;
  ptl::TableauStats tableau_stats;
  uint64_t residual_size = 0;  ///< |residual| after phase 1
};

/// \brief Decides whether `history` can be extended to an infinite temporal
/// database satisfying the universal safety sentence `phi` (Theorem 4.2):
/// ground (Theorem 4.1), rewrite through the prefix (Lemma 4.2 phase 1),
/// decide satisfiability of the residual (phase 2), decode the witness.
///
/// `binding` pre-binds free variables of `phi` (trigger duality, Section 2).
Result<CheckResult> CheckPotentialSatisfaction(
    const fotl::FormulaFactory& fotl_factory, fotl::Formula phi,
    const History& history, const fotl::Valuation& binding = {},
    const CheckOptions& options = {});

}  // namespace checker
}  // namespace tic

#endif  // TIC_CHECKER_EXTENSION_H_
