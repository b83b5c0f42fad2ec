#include "hierarq/core/bagset.h"

#include <algorithm>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/algorithm1.h"

namespace hierarq {

Result<BagSetMaxResult> MaximizeBagSet(const ConjunctiveQuery& query,
                                       const Database& d,
                                       const Database& repair, size_t budget,
                                       const RepairCosts* costs) {
  const BagMaxMonoid monoid(budget);

  // ψ(D, Dr): facts of D get 1 (all-ones); facts of Dr \ D get ★ (or the
  // generalized cost vector); everything else is absent (Definition 5.10).
  HIERARQ_ASSIGN_OR_RETURN(Database combined, d.UnionWith(repair));

  HIERARQ_ASSIGN_OR_RETURN(
      BagMaxVec profile,
      (RunAlgorithm1OnQuery<BagMaxMonoid>(
          query, monoid, combined, [&](const Fact& fact) -> BagMaxVec {
            if (d.ContainsFact(fact)) {
              return monoid.One();
            }
            size_t cost = 1;
            if (costs != nullptr) {
              auto it = costs->find(fact);
              if (it != costs->end()) {
                cost = it->second;
              }
            }
            return monoid.FromCost(cost);
          })));

  BagSetMaxResult out;
  out.saturated = BagMaxMonoid::Saturated(profile);
  out.max_multiplicity = profile.back();
  out.profile = std::move(profile);
  return out;
}

Result<std::vector<Fact>> ExtractOptimalRepair(const ConjunctiveQuery& query,
                                               const Database& d,
                                               const Database& repair,
                                               size_t budget) {
  HIERARQ_ASSIGN_OR_RETURN(BagSetMaxResult base,
                           MaximizeBagSet(query, d, repair, budget));
  const uint64_t target = base.max_multiplicity;

  // Greedy with the solver as oracle: committing fact f is safe iff the
  // optimum from D ∪ {f} with budget-1 still equals the global optimum.
  // If an optimal solution is non-empty, at least one of its facts passes
  // the test, so the greedy always makes progress toward `target`.
  Database current = d;
  std::vector<Fact> candidates;
  for (const Fact& fact : repair.AllFacts()) {
    if (!d.ContainsFact(fact)) {
      candidates.push_back(fact);
    }
  }

  std::vector<Fact> chosen;
  size_t remaining = budget;
  while (remaining > 0) {
    // Are we already at the target without further repairs?
    HIERARQ_ASSIGN_OR_RETURN(uint64_t now,
                             BagSetCountHierarchical(query, current));
    if (now >= target) {
      break;
    }
    bool committed = false;
    for (size_t i = 0; i < candidates.size() && !committed; ++i) {
      Database tentative = current;
      HIERARQ_RETURN_NOT_OK(
          tentative.AddFact(candidates[i].relation, candidates[i].tuple)
              .status());
      HIERARQ_ASSIGN_OR_RETURN(
          BagSetMaxResult sub,
          MaximizeBagSet(query, tentative, repair, remaining - 1));
      if (sub.max_multiplicity >= target) {
        chosen.push_back(candidates[i]);
        current = std::move(tentative);
        candidates.erase(candidates.begin() + static_cast<ptrdiff_t>(i));
        remaining -= 1;
        committed = true;
      }
    }
    if (!committed) {
      return Status::Internal(
          "optimal-repair greedy failed to make progress (bug)");
    }
  }
  return chosen;
}

Result<uint64_t> BagSetCountHierarchical(const ConjunctiveQuery& query,
                                         const Database& d) {
  const CountMonoid monoid;
  return RunAlgorithm1OnQuery<CountMonoid>(
      query, monoid, d, [](const Fact&) -> uint64_t { return 1; });
}

}  // namespace hierarq
