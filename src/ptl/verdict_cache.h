#ifndef TIC_PTL_VERDICT_CACHE_H_
#define TIC_PTL_VERDICT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/flat/lru.h"
#include "common/flat/wyhash.h"
#include "ptl/formula.h"
#include "ptl/word.h"

namespace tic {
namespace ptl {

/// \brief Hit/miss/eviction counters, surfaced through `MonitorVerdict` and
/// the benches (EXPERIMENTS.md E2/E5).
struct VerdictCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t capacity = 0;
};

/// \brief The canonical form of a formula *modulo letter renaming*: the
/// serialized structure with each letter replaced by its first-occurrence
/// index in a fixed (pre-order) traversal, plus the mapping from canonical
/// index back to the caller's concrete letters.
///
/// Two formulas have equal keys iff one is an injective letter-renaming of the
/// other — precisely the equivalence satisfiability is invariant under, and
/// the reason grounding instances over different domain elements (which are
/// letter-renamings of one another — the same indistinguishability that lets
/// Monitor::Compact() catch fresh elements up from z-patterns) can share one
/// cached verdict. Because the key carries no PropIds or node
/// addresses, it transfers across Factory and PropVocabulary instances.
struct CanonicalFormula {
  std::string key;
  flat::Fp128 fp;               ///< 128-bit fingerprint of `key` (cache index key)
  std::vector<PropId> letters;  ///< canonical index -> concrete letter
};

/// \brief Computes the canonical form. Iterative pre-order serialization of
/// the shared DAG (repeat visits emit back-references, so the key is linear in
/// the number of distinct nodes, never the tree unfolding). Returns nullopt
/// past `max_nodes` distinct nodes so outliers bypass the cache instead of
/// building huge keys.
std::optional<CanonicalFormula> Canonicalize(Formula f, size_t max_nodes = 1u << 20);

/// \brief Bounded, thread-safe LRU cache of tableau verdicts keyed by
/// canonical residual form.
///
/// Shared across updates, Monitor instances, and the TriggerManager (inject
/// one instance through `TableauOptions::verdict_cache`). Stores sat/unsat
/// plus the lasso witness over canonical letter indices; on a hit the witness
/// is reconstructed over the querying formula's letters, so a cached verdict
/// is indistinguishable from a fresh tableau run.
class VerdictCache {
 public:
  explicit VerdictCache(size_t capacity = 4096);

  /// On hit, fills `satisfiable` and (when the entry has one) `witness`
  /// remapped through `cf.letters`, and returns true.
  bool Lookup(const CanonicalFormula& cf, bool* satisfiable,
              std::optional<UltimatelyPeriodicWord>* witness);

  /// Inserts (or refreshes) the verdict for `cf`. The witness, when present,
  /// is stored over canonical letter indices via the inverse of `cf.letters`.
  void Insert(const CanonicalFormula& cf, bool satisfiable,
              const std::optional<UltimatelyPeriodicWord>& witness);

  /// Cheap snapshot: four relaxed atomic loads, never takes `mu_`, so
  /// per-update stat reads cannot serialize against hot-path lookups.
  VerdictCacheStats stats() const;

  /// \brief One cached verdict in transferable form: the renaming-invariant
  /// fingerprint plus the lasso over canonical letter indices. Carries no
  /// PropIds, factory pointers, or debug keys — safe to move across processes
  /// (the snapshot/restore path serializes these).
  struct ExportedVerdict {
    flat::Fp128 fp;
    bool satisfiable = false;
    bool has_witness = false;
    std::vector<std::vector<uint32_t>> prefix;
    std::vector<std::vector<uint32_t>> loop;
  };

  /// Dumps every live entry (LRU order is not preserved — entries re-enter
  /// in iteration order on Import, which only perturbs eviction priority,
  /// never verdicts).
  std::vector<ExportedVerdict> Export() const;

  /// Re-inserts exported entries. Imported entries carry no debug key, so
  /// the collision assert tolerates them (a later native Insert refreshes
  /// the key).
  void Import(const std::vector<ExportedVerdict>& entries);

 private:
  // Lasso over canonical letter indices (sets of indices true per state).
  struct Entry {
    bool satisfiable = false;
    bool has_witness = false;
    std::vector<std::vector<uint32_t>> prefix;
    std::vector<std::vector<uint32_t>> loop;
#ifndef NDEBUG
    // Debug builds retain the full key to detect fingerprint collisions; a
    // release hit compares only the 128-bit fingerprint (2^-128 risk).
    std::string debug_key;
#endif
  };

  mutable std::mutex mu_;
  size_t capacity_;
  // Fingerprint-keyed slab LRU: hits and steady-state inserts touch no heap,
  // unlike the former std::list + string-keyed index (which re-hashed and
  // heap-compared a full key string on every lookup).
  flat::FlatLru<flat::Fp128, Entry> lru_;

  // Monotonic counters kept outside mu_ (relaxed atomics) so stats() is a
  // lock-free snapshot. entries_ mirrors lru_.size() at each mutation.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace ptl
}  // namespace tic

#endif  // TIC_PTL_VERDICT_CACHE_H_
