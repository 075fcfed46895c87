#ifndef TIC_DB_RELATION_H_
#define TIC_DB_RELATION_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/tuple.h"

namespace tic {

/// \brief A finite relation of fixed arity — the interpretation of one ordinary
/// predicate symbol in one database state.
///
/// Backed by a hash set; Contains/Insert/Erase are expected O(1).
class Relation {
 public:
  explicit Relation(uint32_t arity) : arity_(arity) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// InvalidArgument unless `t` has this relation's arity.
  Status CheckArity(const Tuple& t) const {
    if (t.size() == arity_) return Status::OK();
    return Status::InvalidArgument("tuple arity " + std::to_string(t.size()) +
                                   " != relation arity " + std::to_string(arity_));
  }

  /// Adds a tuple; returns InvalidArgument on an arity mismatch.
  Status Insert(Tuple t) {
    TIC_RETURN_NOT_OK(CheckArity(t));
    tuples_.insert(std::move(t));
    return Status::OK();
  }

  /// Removes a tuple if present; returns InvalidArgument on an arity mismatch.
  Status Erase(const Tuple& t) {
    TIC_RETURN_NOT_OK(CheckArity(t));
    tuples_.erase(t);
    return Status::OK();
  }

  bool Contains(const Tuple& t) const { return tuples_.count(t) > 0; }

  /// Collects every element appearing in any tuple into `out`. Any set type
  /// with `insert(Value)` works (std::unordered_set, flat::FlatSet).
  template <typename SetT>
  void CollectElements(SetT* out) const {
    for (const Tuple& t : tuples_) {
      for (Value v : t) out->insert(v);
    }
  }

  auto begin() const { return tuples_.begin(); }
  auto end() const { return tuples_.end(); }

  bool operator==(const Relation& other) const {
    return arity_ == other.arity_ && tuples_ == other.tuples_;
  }

 private:
  uint32_t arity_;
  std::unordered_set<Tuple, TupleHash> tuples_;
};

}  // namespace tic

#endif  // TIC_DB_RELATION_H_
