#include "hierarq/data/relation.h"

#include <utility>

#include "hierarq/util/logging.h"

namespace hierarq {

bool Relation::Insert(const Tuple& tuple) {
  HIERARQ_CHECK_EQ(tuple.size(), arity_)
      << "arity mismatch inserting into " << name_;
  if (!index_.try_emplace(tuple, tuples_.size()).second) {
    return false;
  }
  tuples_.push_back(tuple);
  return true;
}

bool Relation::Erase(const Tuple& tuple) {
  auto it = index_.find(tuple);
  if (it == index_.end()) {
    return false;
  }
  const size_t pos = it->second;
  index_.erase(it);
  const size_t last = tuples_.size() - 1;
  if (pos != last) {
    tuples_[pos] = std::move(tuples_[last]);
    auto moved = index_.find(tuples_[pos]);
    HIERARQ_CHECK(moved != index_.end() && moved->second == last);
    moved->second = pos;
  }
  tuples_.pop_back();
  return true;
}

std::string Relation::ToString() const {
  std::string out = name_ + "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += TupleToString(tuples_[i]);
  }
  out += "}";
  return out;
}

}  // namespace hierarq
