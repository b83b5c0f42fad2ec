#ifndef HIERARQ_DATA_ANNOTATED_H_
#define HIERARQ_DATA_ANNOTATED_H_

/// \file annotated.h
/// \brief K-annotated relations and databases (paper §2, §5.3).
///
/// A K-annotated relation associates each fact with a value from a
/// 2-monoid's domain K. Facts whose annotation is the monoid zero are
/// simply *absent* — supports are what the algorithm stores and what
/// Lemma 6.6's size argument counts. Keys are tuples ordered by the
/// relation's schema, which is the atom's variable set in ascending VarId
/// order (atom term order, duplicate variables, and constants are resolved
/// once, when the base database is annotated).
///
/// `AnnotatedRelation` stores its support in a `ColumnarStore`
/// (data/columnar.h): one value vector per schema position, one
/// annotation vector, and a row-id hash index. Its interface is
/// `Find` / `FindOrInsert` / `Merge` / `Erase` / `Reset` plus the two
/// Algorithm 1 bulk operations, `ProjectDropInto` (Rule 1) and
/// `JoinUnionInto` (Rule 2); the batch step loop (core/algorithm1.h)
/// drives the store natives directly through `store()`, because a shared
/// base relation may carry another query's variable labels. The oracle
/// differential suite (tests/storage_differential_test.cpp) checks every
/// solver built on it against the engine/ reference implementations.

#include <functional>
#include <utility>
#include <vector>

#include "hierarq/data/columnar.h"
#include "hierarq/data/database.h"
#include "hierarq/data/tuple.h"
#include "hierarq/query/query.h"
#include "hierarq/query/var_set.h"
#include "hierarq/util/logging.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// A relation annotated with values from K, keyed by tuples over `schema`.
template <typename K>
class AnnotatedRelation {
 public:
  AnnotatedRelation() : AnnotatedRelation(VarSet{}) {}
  explicit AnnotatedRelation(VarSet schema)
      : schema_(std::move(schema)), store_(schema_.size()) {}

  const VarSet& schema() const { return schema_; }

  /// |supp(R)| — the number of stored (non-zero) facts.
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  /// Bytes held for the support (ColumnarStore::bytes).
  size_t bytes() const { return store_.bytes(); }

  /// The underlying store, for the Algorithm 1 step loop. Its schema
  /// checks run against the plan, since a shared base relation keeps the
  /// variable labels of the first query that annotated it.
  const ColumnarStore<K>& store() const { return store_; }
  ColumnarStore<K>* mutable_store() { return &store_; }

  /// Sets the annotation of `key` (inserting or overwriting).
  void Set(const Tuple& key, K value) {
    HIERARQ_CHECK_EQ(key.size(), schema_.size());
    store_.Set(key, std::move(value));
  }

  /// Returns the annotation of `key`, or nullptr when `key` is not in the
  /// support (i.e. its annotation is the monoid zero).
  const K* Find(const Tuple& key) const { return store_.Find(key); }

  bool Contains(const Tuple& key) const { return Find(key) != nullptr; }

  /// Finds the annotation of `key`, inserting a value-initialized slot when
  /// absent; the bool is true iff the slot was just inserted (the caller
  /// must then assign a real annotation). One probe sequence total.
  std::pair<K*, bool> FindOrInsert(const Tuple& key) {
    return store_.FindOrInsert(key);
  }

  /// Inserts `value` at `key`, or combines it with the existing annotation
  /// via `combine(existing, value)`. Used by annotation (⊕-merging
  /// duplicate keys).
  template <typename Combine>
  void Merge(const Tuple& key, K value, Combine combine) {
    store_.Merge(key, std::move(value), combine);
  }

  /// Removes `key` from the support if present; true iff removed. The
  /// single-fact mutation of the incremental subsystem
  /// (incremental/incremental_view.h) — batch evaluation still drops
  /// whole relations via `Clear`.
  bool Erase(const Tuple& key) {
    HIERARQ_CHECK_EQ(key.size(), schema_.size());
    return store_.Erase(key);
  }

  /// Pre-sizes the store so `count` insertions proceed without growth.
  void Reserve(size_t count) { store_.Reserve(count); }

  /// Releases all entries (frees intermediate relations eagerly). The
  /// store keeps its buffers, so a relation reused across evaluations
  /// (core/evaluator.h) reaches steady state allocation-free.
  void Clear() { store_.Clear(); }

  /// Re-targets this relation at `schema`, dropping all entries but
  /// keeping the store's buffers — the buffer-reuse entry point.
  void Reset(const VarSet& schema) {
    schema_ = schema;
    store_.Reset(schema_.size());
  }

  /// Visits every stored fact as (key, annotation), in row order. Callers
  /// must not rely on the order beyond "each fact exactly once": erases
  /// swap rows.
  template <typename Fn>
  void ForEach(Fn fn) const {
    store_.ForEach(fn);
  }

  /// Algorithm 1 Rule 1: ⊕-projects schema position `drop_pos` out of
  /// this relation into `out` (already Reset to the surviving schema).
  /// Only the surviving columns are read.
  template <typename Plus>
  void ProjectDropInto(size_t drop_pos, Plus plus,
                       AnnotatedRelation* out) const {
    HIERARQ_CHECK_LT(drop_pos, schema_.size());
    HIERARQ_CHECK_EQ(out->schema_.size() + 1, schema_.size());
    store_.ProjectDropInto(drop_pos, plus, &out->store_);
  }

  /// Algorithm 1 Rule 2: out(x) = left(x) ⊗ right(x) over the *union* of
  /// supports. A 2-monoid guarantees only 0 ⊗ 0 = 0 (Definition 5.6), not
  /// annihilation, so one-sided facts contribute `times(value, zero)` /
  /// `times(zero, value)`; only absent-absent pairs are skipped
  /// (Lemma 6.6). The result index is built with compare-free inserts.
  template <typename Times>
  static void JoinUnionInto(const AnnotatedRelation& left,
                            const AnnotatedRelation& right, Times times,
                            const K& zero, AnnotatedRelation* out) {
    HIERARQ_CHECK(left.schema_ == right.schema_)
        << "Rule 2 requires equal schemas";
    HIERARQ_CHECK(out->schema_ == left.schema_);
    ColumnarStore<K>::JoinUnionInto(left.store_, right.store_, times, zero,
                                    &out->store_);
  }

 private:
  VarSet schema_;
  ColumnarStore<K> store_;
};

/// A K-annotated database instance for a query: one annotated relation per
/// query atom, indexed by atom position.
template <typename K>
struct AnnotatedDatabase {
  std::vector<AnnotatedRelation<K>> relations;

  /// |D| in the sense of Definition 6.5: the sum of relation supports.
  size_t TotalSupport() const {
    size_t total = 0;
    for (const auto& rel : relations) {
      total += rel.size();
    }
    return total;
  }
};

/// Annotates one atom's relation into `out` (whose schema must already be
/// the atom's variable set). Each tuple of `relation` is matched against
/// the atom pattern: constant terms must be equal and repeated variables
/// must bind consistently; matching tuples are projected onto the atom's
/// variable set (ascending VarId order) to form the key. Non-matching
/// tuples are skipped — they can never contribute a satisfying assignment.
///
/// Duplicate keys — e.g. literally duplicated facts in a bag of tuples —
/// are combined with `combine(existing, fresh)`; callers evaluating over a
/// 2-monoid pass ⊕ so duplicates merge instead of aborting.
template <typename K, typename Combine>
void AnnotateAtom(const Atom& atom, const Relation& relation,
                  const std::function<K(const Fact&)>& annotator,
                  Combine combine, AnnotatedRelation<K>* out) {
  HIERARQ_CHECK(out->schema() == atom.vars());
  // Resolve each schema variable's occurrence positions once — the tuple
  // loop below runs |relation| times and must not allocate per tuple.
  std::vector<std::vector<size_t>> var_positions;
  var_positions.reserve(atom.vars().size());
  for (VarId v : atom.vars()) {
    var_positions.push_back(atom.PositionsOf(v));
  }
  // One Fact reused across tuples: the relation-name string is built once,
  // only the tuple payload changes per iteration.
  Fact fact{atom.relation(), Tuple{}};
  for (const Tuple& tuple : relation.tuples()) {
    if (tuple.size() != atom.arity()) {
      continue;  // Arity mismatch: cannot match the atom.
    }
    // Match the tuple against the atom pattern.
    bool matches = true;
    for (size_t i = 0; i < atom.terms().size() && matches; ++i) {
      const Term& term = atom.terms()[i];
      if (term.is_constant()) {
        matches = term.constant() == tuple[i];
      }
    }
    // Repeated variables must bind to equal values.
    if (matches) {
      for (const std::vector<size_t>& positions : var_positions) {
        for (size_t i = 1; i < positions.size() && matches; ++i) {
          matches = tuple[positions[i]] == tuple[positions[0]];
        }
        if (!matches) {
          break;
        }
      }
    }
    if (!matches) {
      continue;
    }
    // Project onto the schema (ascending VarId order).
    Tuple key;
    key.reserve(var_positions.size());
    for (const std::vector<size_t>& positions : var_positions) {
      key.push_back(tuple[positions.front()]);
    }
    fact.tuple = tuple;
    out->Merge(key, annotator(fact), combine);
  }
}

/// Builds the K-annotated database for `query` from the facts of `facts`,
/// annotating each fact f with `annotator(f)` and ⊕-combining duplicate
/// keys with `combine`.
///
/// Atoms whose relation is absent from `facts` produce empty (all-zero)
/// annotated relations, which is the correct semantics.
template <typename K, typename Combine>
AnnotatedDatabase<K> AnnotateForQuery(
    const ConjunctiveQuery& query, const Database& facts,
    const std::function<K(const Fact&)>& annotator, Combine combine) {
  AnnotatedDatabase<K> out;
  out.relations.reserve(query.num_atoms());
  for (const Atom& atom : query.atoms()) {
    AnnotatedRelation<K> annotated(atom.vars());
    const Relation* relation = facts.FindRelation(atom.relation());
    if (relation != nullptr) {
      annotated.Reserve(relation->size());
      AnnotateAtom(atom, *relation, annotator, combine, &annotated);
    }
    out.relations.push_back(std::move(annotated));
  }
  return out;
}

/// AnnotateForQuery without an explicit combiner: duplicate keys keep the
/// latest annotation. Set databases cannot produce duplicate keys (atom
/// matching plus projection is injective on a duplicate-free relation), so
/// the combiner only matters for bag-like inputs — monoid-aware callers
/// (core/algorithm1.h, core/evaluator.h) pass ⊕ explicitly.
template <typename K>
AnnotatedDatabase<K> AnnotateForQuery(
    const ConjunctiveQuery& query, const Database& facts,
    const std::function<K(const Fact&)>& annotator) {
  return AnnotateForQuery<K>(
      query, facts, annotator,
      [](const K&, const K& fresh) { return fresh; });
}

}  // namespace hierarq

#endif  // HIERARQ_DATA_ANNOTATED_H_
