#ifndef HIERARQ_CORE_BAGSET_H_
#define HIERARQ_CORE_BAGSET_H_

/// \file bagset.h
/// \brief Bag-Set Maximization (paper §4, §5.5, Theorem 5.11).
///
/// Given a set database D, a repair database Dr and a budget θ, computes
/// the maximum value Q(D') under bag-set semantics over all valid repairs
/// D ⊆ D' ⊆ D ∪ Dr with |D' \ D| ≤ θ. The solver instantiates Algorithm 1
/// with the bag-max 2-monoid (Definition 5.9), annotating facts of D with
/// the all-ones vector and facts of Dr \ D with ★ (Definition 5.10); its
/// output vector holds the optimum for *every* budget i ≤ θ at once.
///
/// Extensions beyond the paper:
///  * per-fact repair costs (weighted repairs) via `RepairCosts`;
///  * witness extraction: `ExtractOptimalRepair` returns an optimal set of
///    facts, using the solver as an oracle (a polynomial greedy that
///    commits a fact iff doing so preserves the optimum at the reduced
///    budget).

#include <optional>
#include <unordered_map>
#include <vector>

#include "hierarq/algebra/bagmax_monoid.h"
#include "hierarq/data/database.h"
#include "hierarq/query/query.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Optional per-fact insertion costs for facts of the repair database;
/// facts not listed cost 1 (the paper's setting).
using RepairCosts = std::unordered_map<Fact, size_t, FactHash>;

/// Result of bag-set maximization.
struct BagSetMaxResult {
  /// profile[i] = max multiplicity of Q achievable with repair cost ≤ i,
  /// for i = 0..θ (Theorem 5.11's output vector q).
  BagMaxVec profile;

  /// profile[θ]: the answer to the Bag-Set Maximization instance.
  uint64_t max_multiplicity = 0;

  /// True when a counter saturated; the reported values are then lower
  /// bounds. Cannot happen for realistically sized inputs.
  bool saturated = false;
};

/// Solves Bag-Set Maximization. Fails with kNotHierarchical for
/// non-hierarchical queries (where the problem is NP-complete,
/// Theorem 4.4).
Result<BagSetMaxResult> MaximizeBagSet(const ConjunctiveQuery& query,
                                       const Database& d,
                                       const Database& repair, size_t budget,
                                       const RepairCosts* costs = nullptr);

/// Returns an optimal repair: a set of at most `budget` facts from
/// `repair` \ `d` whose addition achieves the maximum multiplicity.
/// Runs O(θ·|Dr|) solver invocations. Unit costs only.
Result<std::vector<Fact>> ExtractOptimalRepair(const ConjunctiveQuery& query,
                                               const Database& d,
                                               const Database& repair,
                                               size_t budget);

/// Q(D) under bag-set semantics via Algorithm 1 with the counting
/// semiring — valid for hierarchical queries (cross-checked against the
/// general join engine in tests).
Result<uint64_t> BagSetCountHierarchical(const ConjunctiveQuery& query,
                                         const Database& d);

}  // namespace hierarq

#endif  // HIERARQ_CORE_BAGSET_H_
