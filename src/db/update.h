#ifndef TIC_DB_UPDATE_H_
#define TIC_DB_UPDATE_H_

#include <vector>

#include "common/status.h"
#include "db/history.h"

namespace tic {

/// \brief One primitive update: insert or delete a tuple of a predicate.
struct UpdateOp {
  enum class Kind { kInsert, kDelete };
  Kind kind;
  PredicateId predicate;
  Tuple tuple;

  static UpdateOp Insert(PredicateId p, Tuple t) {
    return UpdateOp{Kind::kInsert, p, std::move(t)};
  }
  static UpdateOp Delete(PredicateId p, Tuple t) {
    return UpdateOp{Kind::kDelete, p, std::move(t)};
  }
};

/// \brief A transaction: primitive updates applied atomically to produce the
/// next database state from the current one.
using Transaction = std::vector<UpdateOp>;

/// \brief Applies `txn` to `state` in place, at O(ops) cost.
///
/// Every op is checked before any is applied — the predicate exists
/// (OutOfRange otherwise), is not a builtin and the tuple has its arity
/// (InvalidArgument otherwise) — so a rejected transaction leaves `state`
/// unchanged.
inline Status ApplyTransaction(DatabaseState* state, const Transaction& txn) {
  for (const UpdateOp& op : txn) {
    TIC_ASSIGN_OR_RETURN(Relation * rel, state->MutableRelation(op.predicate));
    TIC_RETURN_NOT_OK(rel->CheckArity(op.tuple));
  }
  for (const UpdateOp& op : txn) {
    Status applied = op.kind == UpdateOp::Kind::kInsert
                         ? state->Insert(op.predicate, op.tuple)
                         : state->Erase(op.predicate, op.tuple);
    if (!applied.ok()) return applied;  // unreachable: every op checked above
  }
  return Status::OK();
}

/// \brief Appends to `history` the state obtained by applying `txn` to its last
/// state (or to the empty state if the history is empty). A rejected
/// transaction appends nothing.
inline Status ApplyTransaction(History* history, const Transaction& txn) {
  if (txn.empty() && !history->empty()) {
    // Identity update: alias the previous state instead of deep-copying every
    // relation — the steady-state fast path costs one shared_ptr append.
    return history->AppendAliasOfLast();
  }
  DatabaseState next = history->empty()
                           ? DatabaseState(history->vocabulary())
                           : history->state(history->length() - 1);
  TIC_RETURN_NOT_OK(ApplyTransaction(&next, txn));
  return history->AppendState(std::move(next));
}

}  // namespace tic

#endif  // TIC_DB_UPDATE_H_
