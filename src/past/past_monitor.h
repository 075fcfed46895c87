#ifndef TIC_PAST_PAST_MONITOR_H_
#define TIC_PAST_PAST_MONITOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/flat/flat_map.h"
#include "common/result.h"
#include "db/update.h"
#include "fotl/factory.h"
#include "past/lowering.h"

namespace tic {
namespace past {

/// \brief Verdict after one transaction.
struct PastVerdict {
  size_t time = 0;
  /// A(theta) held at the new instant for every substitution — the G-past
  /// constraint is still satisfied by the history.
  bool satisfied = false;
  /// Instant of the first violation, once one occurred (violations of
  /// G-constraints are permanent).
  std::optional<size_t> first_violation;
};

/// \brief History-less monitor for constraints of the form
/// `forall x1 ... xm . G A` with A a *past* formula — the Past FOTL baseline
/// of Chomicki [3] cited in Sections 1, 5 and 6, and the shape of
/// Proposition 2.1 (always a safety property).
///
/// Unlike the potential-satisfaction checker (Theorem 4.2), this implements
/// the weaker classical notion: report a violation as soon as A fails at some
/// instant <= now. It is "history-less": per update it touches only
/// constant-size-per-element auxiliary tables (one per temporal subformula of
/// A, keyed by valuations over the relevant set plus fresh-element
/// stand-ins), never a past database state — so the per-update cost is
/// independent of the history length (Experiment E6/E10).
///
/// The constraint is compiled once by the fotl -> past lowering pass
/// (lowering.h) into a flat postfix Program; evaluation is an iterative
/// range scan with an operand stack, auxiliary tables are flat hash maps
/// keyed by packed dense element ids, and every per-update scratch buffer is
/// retained — so once the relevant set stops growing, ApplyTransaction
/// performs no heap allocation (the router promotes this evaluator to a
/// first-class monitor backend, and the `ctest -L alloc` gate holds it to
/// that).
///
/// Updates are delta-driven, the same O(delta) frontend discipline the
/// cohort path uses: a table cell can change only when (a) a transaction op
/// touches one of its elements, (b) its own value changed at the previous
/// instant (temporal state still settling), or (c) an auxiliary cell it
/// reads changed (propagated by marking that cell's elements touched,
/// children-first). Untouched, settled cells keep their value in place — no
/// column rebuild, no swap. A transaction that touches nothing (the empty
/// steady state) returns after an O(ops) scan without evaluating anything.
/// Two conservative escapes fall back to a full sweep: programs with inner
/// quantifiers (a letter flip there can affect any valuation), and flips of
/// letters over constant-term atoms (which every valuation reads).
class PastMonitor {
 public:
  static Result<std::unique_ptr<PastMonitor>> Create(
      std::shared_ptr<fotl::FormulaFactory> factory, fotl::Formula constraint,
      std::vector<Value> constant_interp = {});

  /// Applies `txn` to the current state in place and evaluates A at the new
  /// instant. A transaction with an invalid op changes nothing.
  Result<PastVerdict> ApplyTransaction(const Transaction& txn);

  /// The current database state: the only one the evaluator reads.
  const DatabaseState& current_state() const { return state_; }
  const PastVerdict& last_verdict() const { return last_verdict_; }

  /// Total auxiliary-table entries — the "history-less" state size, which
  /// depends on |R_D| but not on the history length.
  size_t AuxiliaryStateSize() const;

  /// Auxiliary tables the lowering pass compiled (one per distinct temporal
  /// subformula); the router's route_decision event logs it.
  size_t num_tables() const { return tables_.size(); }

  /// Absolute instant of the last checkpoint: the current instant at the
  /// last Compact(), 0 before the first.
  size_t time_base() const { return time_base_; }

  /// Compaction: the tables carry all temporal state and no past database
  /// state is stored, so a fold only advances time_base().
  Status Compact() {
    if (num_states_ > 0) time_base_ = num_states_ - 1;
    return Status::OK();
  }

  /// \brief Complete serializable auxiliary state: everything
  /// ApplyTransaction reads besides the program (recompiled from the
  /// constraint) and the current database state. `changed`/`pending` carry
  /// the still-settling delta frontier across the snapshot boundary.
  struct StateImage {
    std::vector<Value> domain;
    size_t standin_base = 0;
    size_t prev_domain_size = 0;
    struct TableImage {
      std::vector<std::pair<uint64_t, bool>> val;
      std::vector<std::pair<uint64_t, bool>> src;
      std::vector<uint64_t> changed;
      std::vector<uint64_t> pending;
    };
    std::vector<TableImage> tables;
    size_t num_states = 0;  // states applied so far
    PastVerdict last_verdict;
    size_t time_base = 0;
  };
  StateImage ExportImage() const;
  /// Replaces the evaluator's state with `image` + `state` (built over the
  /// same vocabulary text the constraint was compiled from). The table count
  /// must match the compiled program, and the time base must not pass the
  /// last state — InvalidArgument otherwise.
  Status RestoreImage(StateImage image, DatabaseState state);

 private:
  PastMonitor(std::shared_ptr<fotl::FormulaFactory> factory,
              std::vector<Value> constant_interp, Program program);

  // Runtime state of one auxiliary table (schema in program_.tables). `val`
  // holds the truth value at the latest computed instant, updated in place
  // for dirty cells only (an untouched, settled cell's value carries over
  // verbatim). Prev tables additionally keep `src`, the source formula's
  // value at the latest instant — next instant's Prev value. `changed`
  // collects the keys whose value (or src) changed this instant; it becomes
  // `pending` (cells to re-evaluate even if untouched) next instant.
  struct Table {
    flat::FlatMap<uint64_t, bool> val;
    flat::FlatMap<uint64_t, bool> src;
    std::vector<uint64_t> changed;
    std::vector<uint64_t> pending;
  };

  // Evaluates the instruction block [begin, end] (inclusive) at the current
  // instant under env_, reading temporal subformulas from the freshly
  // computed `curr` columns. Iterative postfix scan; quantifier subtrees are
  // jumped over and looped by EvalQuantifier (the only recursion, bounded by
  // quantifier NESTING depth, not formula depth).
  bool EvalRange(uint32_t begin, uint32_t end);
  bool EvalQuantifier(uint32_t q);

  // Previous-instant value under the valuation `ids` (dense element ids, one
  // per table var), read from `map` (a table's val column — still at t-1 for
  // the cell being recomputed — or a Prev table's src column). Valuations
  // mentioning elements that only became relevant this instant (id >=
  // prev_domain_size_) are canonicalized to distinct unused fresh-element
  // stand-ins.
  bool PrevValue(const flat::FlatMap<uint64_t, bool>& map, const uint32_t* ids,
                 size_t arity) const;

  // Marks a dense element id dirty for this instant (idempotent).
  void Touch(uint32_t id);

  // Recomputes one cell of table `ti` at the current instant, updating `val`
  // in place. Records the key in `changed` and touches its elements when the
  // stored value changed (or the cell is new); a changed zero-arity cell
  // escalates to `*full` (it has no elements to propagate through).
  void RecomputeCell(size_t ti, const uint32_t* ids, bool* full);

  static uint64_t PackIds(const uint32_t* ids, size_t arity) {
    uint64_t key = 0;
    for (size_t i = 0; i < arity; ++i) {
      key |= static_cast<uint64_t>(ids[i]) << (16 * i);
    }
    return key;
  }

  std::shared_ptr<fotl::FormulaFactory> ffac_;
  Program program_;
  // The current database state, updated in place, and the rigid constants.
  DatabaseState state_;
  std::vector<Value> constant_interp_;

  // Dense element ids: domain_[id] is the element, elem_id_ inverts it. The
  // domain only grows (initial relevant set, stand-ins, then fresh elements
  // in arrival order), so ids are stable. Stand-in value -(k+1) sits at id
  // standin_base_ + k; ids >= prev_domain_size_ are fresh this instant.
  std::vector<Value> domain_;
  flat::FlatMap<Value, uint32_t> elem_id_;
  size_t standin_base_ = 0;
  size_t prev_domain_size_ = 0;

  std::vector<Table> tables_;  // parallel to program_.tables

  // Delta-frontend escapes, fixed at Create: programs with inner quantifiers
  // always full-sweep on any activity, and flips of these constant-term atom
  // elements (which every valuation can read) force a full sweep.
  bool has_quant_ = false;
  std::vector<Value> const_atom_vals_;  // sorted

  // Dirty-element set for the current update: flag per dense id plus the
  // list of set flags (cleared by walking the list — O(touched)).
  std::vector<uint8_t> touched_flag_;
  std::vector<uint32_t> touched_;

  // Per-update scratch, capacity retained across updates.
  std::vector<Value> env_;        // VarId -> value
  std::vector<uint8_t> vals_;     // operand stack (base-disciplined)
  Tuple args_scratch_;            // atom argument buffer
  std::vector<Value> fresh_scratch_;
  std::vector<uint32_t> ext_ids_;  // external-substitution odometer

  PastVerdict last_verdict_;
  size_t num_states_ = 0;  // states so far; the current instant is one less
  bool first_instant_ = true;  // no instant evaluated yet
  size_t time_base_ = 0;       // see time_base()
};

}  // namespace past
}  // namespace tic

#endif  // TIC_PAST_PAST_MONITOR_H_
