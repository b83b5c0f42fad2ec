#ifndef HIERARQ_DATA_RELATION_H_
#define HIERARQ_DATA_RELATION_H_

/// \file relation.h
/// \brief Set-semantics relations: duplicate-free bags of same-arity tuples.
///
/// Iteration order is insertion order until the first erase
/// (deterministic either way). Membership, insert and erase are O(1) via a
/// hash index from each tuple to its position in the tuple vector.

#include <string>
#include <unordered_map>
#include <vector>

#include "hierarq/data/tuple.h"
#include "hierarq/util/result.h"

namespace hierarq {

class Relation {
 public:
  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts `tuple`; duplicate inserts are no-ops. Returns true if the
  /// tuple was new. Fails (false + unchanged relation) never — arity is
  /// checked with a CHECK because a mismatch is a programming error.
  bool Insert(const Tuple& tuple);

  bool Contains(const Tuple& tuple) const {
    return index_.find(tuple) != index_.end();
  }

  /// Removes `tuple` if present; returns true if removed. O(1): the last
  /// tuple moves into the erased position and its index entry is
  /// re-pointed, so iteration order after an erase is *not* insertion
  /// order anymore.
  bool Erase(const Tuple& tuple);

  /// Tuples in deterministic order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  std::string ToString() const;

 private:
  std::string name_;
  size_t arity_ = 0;
  std::vector<Tuple> tuples_;
  // Tuple -> its position in `tuples_`. Each tuple is stored exactly
  // twice: once in the vector, once as this map's key.
  std::unordered_map<Tuple, size_t, TupleHash> index_;
};

}  // namespace hierarq

#endif  // HIERARQ_DATA_RELATION_H_
