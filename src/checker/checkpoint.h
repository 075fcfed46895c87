#ifndef TIC_CHECKER_CHECKPOINT_H_
#define TIC_CHECKER_CHECKPOINT_H_

#include <memory>
#include <string>
#include <string_view>

#include "checker/monitor.h"
#include "common/result.h"

namespace tic {
namespace checker {

/// \brief Runtime resources re-attached at restore time. Everything in a
/// snapshot is *state*; pools, caches, and sinks are *wiring* the restoring
/// process owns, so they are parameters, not payload.
struct RestoreOptions {
  /// Verdict cache for the restored monitor. When null, the monitor defaults
  /// a private one (exactly as Monitor::Create does for a fresh monitor).
  std::shared_ptr<ptl::VerdictCache> verdict_cache;
  /// Compiled-automaton cache for the cohort path; null = private default.
  std::shared_ptr<ptl::AutomatonCache> automaton_cache;
  /// Worker pool + parallelism degree (CheckOptions::threads semantics).
  std::shared_ptr<ThreadPool> thread_pool;
  size_t threads = 1;
  /// Re-import the serialized verdict-cache entries (kSecCache) into the
  /// restored monitor's cache. The fingerprints are renaming-invariant, so
  /// imported verdicts are valid against the rebuilt formulas; importing is
  /// purely a warm-start (verdicts never depend on it).
  bool import_verdict_cache = true;
};

/// \brief Serializes a live Monitor into the TICSNAP01 container and restores
/// a verdict-equivalent monitor from one — without replaying the transaction
/// history.
///
/// What round-trips: the constraint, vocabulary and constant interpretation;
/// the current database state and the state count; every minted propositional
/// letter in mint order; the per-instance checkpoint formulas (hash-consed
/// node pool); the RLE word; the relevant set; the compaction checkpoint
/// (basis + z-patterns) and time base; the semantic fields of the last
/// verdict; the renaming-invariant verdict-cache entries; and, on the past
/// route, the complete auxiliary-cell image of the past evaluator.
///
/// What intentionally does NOT round-trip: derived machinery (cohorts,
/// point-algebra watch lists, the running residuals of the instances on
/// progression and their classes) is rebuilt lazily on the
/// first post-restore update from the restored checkpoint formulas and word
/// — it is memoization, never semantic state — and lifetime
/// statistics (tableau/automaton/cohort counters, provenance diagnoses)
/// restart at zero.
///
/// Restore is fail-closed: any truncation, bit flip, section reordering or
/// semantic inconsistency (letter ids that do not re-mint identically, formula
/// indices out of range, arity mismatches) yields a Status and no monitor.
class MonitorCheckpoint {
 public:
  /// Payload codec version inside kSecMeta (bumped when any section payload
  /// changes shape or meaning; the container version covers only the
  /// envelope). Version 2: instance formulas are checkpoint bases in every
  /// backend (version 1 stored progression-backend residuals at "now"), and
  /// mode byte 2 (a retired history-less mode) is invalid. Version 3: the
  /// history section holds the current state alone, the meta prefix counts
  /// the states applied (version 2 stored every state since the last
  /// compaction), and a letter record no longer repeats its predicate's
  /// arity. Version 4: option-flag bits 1-3 (the retired router, forced past
  /// route and cohort-stepping switches) must be clear, and letters exist
  /// only for predicates the constraint mentions.
  static constexpr uint32_t kStateVersion = 4;

  static Result<std::string> Serialize(const Monitor& monitor);

  static Result<std::unique_ptr<Monitor>> Restore(
      std::string_view blob, const RestoreOptions& options = {});
};

}  // namespace checker
}  // namespace tic

#endif  // TIC_CHECKER_CHECKPOINT_H_
