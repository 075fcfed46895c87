#ifndef TIC_DB_HISTORY_H_
#define TIC_DB_HISTORY_H_

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "db/state.h"
#include "db/vocabulary.h"

namespace tic {

/// \brief InvalidArgument unless `constant_interp` (universe element per
/// constant id) covers every constant of `vocab`.
inline Status CheckConstantInterpretation(const Vocabulary& vocab,
                                          const std::vector<Value>& constant_interp) {
  if (constant_interp.size() != vocab.num_constants()) {
    return Status::InvalidArgument(
        "constant interpretation covers " + std::to_string(constant_interp.size()) +
        " of " + std::to_string(vocab.num_constants()) + " constants");
  }
  return Status::OK();
}

/// \brief A finite-time temporal database (D_0, ..., D_t): the "current history"
/// on which temporal integrity constraints are checked (Section 2).
///
/// Constants are rigid: their interpretation is fixed once per history.
class History {
 public:
  /// Creates an empty history (no states yet). `constant_interp[c]` gives the
  /// universe element denoted by constant id `c`; it must cover every constant
  /// of the vocabulary.
  static Result<History> Create(VocabularyPtr vocab,
                                std::vector<Value> constant_interp = {}) {
    TIC_RETURN_NOT_OK(CheckConstantInterpretation(*vocab, constant_interp));
    return History(std::move(vocab), std::move(constant_interp));
  }

  const VocabularyPtr& vocabulary() const { return vocab_; }

  /// Number of states; the paper's t+1 for history (D_0,...,D_t).
  size_t length() const { return states_.size(); }
  bool empty() const { return states_.empty(); }

  /// \pre t < length(). The reference stays valid across later appends —
  /// states are individually heap-owned, not stored inline in a vector.
  const DatabaseState& state(size_t t) const { return *states_[t]; }

  /// \pre c < vocabulary()->num_constants()
  Value ConstantValue(ConstantId c) const { return constant_interp_[c]; }
  const std::vector<Value>& constant_interpretation() const { return constant_interp_; }

  /// Appends a fresh all-empty state and returns a pointer for population.
  DatabaseState* AppendEmptyState() {
    states_.push_back(std::make_shared<DatabaseState>(vocab_));
    return states_.back().get();
  }

  /// Appends a copy of the last state (the identity update); the history must be
  /// non-empty. Returns a pointer for applying the delta.
  Result<DatabaseState*> AppendCopyOfLast() {
    if (states_.empty()) return Status::OutOfRange("history has no states to copy");
    states_.push_back(std::make_shared<DatabaseState>(*states_.back()));
    return states_.back().get();
  }

  /// Appends the last state again *by aliasing* (shared ownership, no deep
  /// copy): the empty-transaction fast path. The aliased state must not be
  /// mutated afterwards — use AppendCopyOfLast when a delta follows.
  Status AppendAliasOfLast() {
    if (states_.empty()) return Status::OutOfRange("history has no states to alias");
    states_.push_back(states_.back());
    return Status::OK();
  }

  /// Appends an externally built state; its vocabulary must match.
  Status AppendState(DatabaseState state) {
    if (state.vocabulary().get() != vocab_.get()) {
      return Status::InvalidArgument("state built over a different vocabulary");
    }
    states_.push_back(std::make_shared<DatabaseState>(std::move(state)));
    return Status::OK();
  }

  /// Drops the first `count` states, renumbering the survivors to 0..; at
  /// least one state must remain (a monitor always keeps its current state).
  /// Used by checkpointed compaction: the dropped prefix must already be
  /// folded into residual state before truncating.
  Status DropPrefix(size_t count) {
    if (count == 0) return Status::OK();
    if (count >= states_.size()) {
      return Status::OutOfRange("DropPrefix would leave an empty history");
    }
    states_.erase(states_.begin(),
                  states_.begin() + static_cast<ptrdiff_t>(count));
    return Status::OK();
  }

  /// Computes the relevant set R_D of Section 4: every element interpreting a
  /// constant plus every element in the domain of some relation in some state.
  /// Returned sorted ascending (deterministic downstream numbering).
  std::vector<Value> RelevantSet() const {
    std::unordered_set<Value> set(constant_interp_.begin(), constant_interp_.end());
    for (const auto& s : states_) s->CollectActiveDomain(&set);
    std::vector<Value> out(set.begin(), set.end());
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  History(VocabularyPtr vocab, std::vector<Value> constant_interp)
      : vocab_(std::move(vocab)), constant_interp_(std::move(constant_interp)) {}

  VocabularyPtr vocab_;
  std::vector<Value> constant_interp_;
  // shared_ptr, not inline values: an empty transaction appends an alias of
  // the previous state (no deep copy of every relation), and state(t)
  // references survive later appends.
  std::vector<std::shared_ptr<DatabaseState>> states_;
};

/// \brief A finitely-represented *infinite* temporal database: `prefix` states
/// followed by `loop` states repeated forever.
///
/// Stands in for the paper's infinite-time databases. No generality is lost for
/// our purposes: the decision procedure of Section 4 always yields ultimately
/// periodic witnesses (Sistla–Clarke small-model property).
class UltimatelyPeriodicDb {
 public:
  /// \pre !loop.empty(); all states over `vocab`.
  UltimatelyPeriodicDb(VocabularyPtr vocab, std::vector<Value> constant_interp,
                       std::vector<DatabaseState> prefix,
                       std::vector<DatabaseState> loop)
      : vocab_(std::move(vocab)),
        constant_interp_(std::move(constant_interp)),
        prefix_(std::move(prefix)),
        loop_(std::move(loop)) {}

  const VocabularyPtr& vocabulary() const { return vocab_; }
  Value ConstantValue(ConstantId c) const { return constant_interp_[c]; }
  const std::vector<Value>& constant_interpretation() const { return constant_interp_; }

  size_t prefix_length() const { return prefix_.size(); }
  size_t loop_length() const { return loop_.size(); }

  /// D_t for any t >= 0.
  const DatabaseState& StateAt(size_t t) const {
    if (t < prefix_.size()) return prefix_[t];
    return loop_[(t - prefix_.size()) % loop_.size()];
  }

  /// Relevant set over the whole (infinite) database — finite because only
  /// prefix+loop states exist.
  std::vector<Value> RelevantSet() const {
    std::unordered_set<Value> set(constant_interp_.begin(), constant_interp_.end());
    for (const DatabaseState& s : prefix_) s.CollectActiveDomain(&set);
    for (const DatabaseState& s : loop_) s.CollectActiveDomain(&set);
    std::vector<Value> out(set.begin(), set.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The finite history (D_0,...,D_{t-1}) consisting of the first `t` states.
  Result<History> TakePrefix(size_t t) const {
    TIC_ASSIGN_OR_RETURN(History h, History::Create(vocab_, constant_interp_));
    for (size_t i = 0; i < t; ++i) {
      TIC_RETURN_NOT_OK(h.AppendState(StateAt(i)));
    }
    return h;
  }

 private:
  VocabularyPtr vocab_;
  std::vector<Value> constant_interp_;
  std::vector<DatabaseState> prefix_;
  std::vector<DatabaseState> loop_;
};

}  // namespace tic

#endif  // TIC_DB_HISTORY_H_
