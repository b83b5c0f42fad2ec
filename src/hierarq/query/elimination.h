#ifndef HIERARQ_QUERY_ELIMINATION_H_
#define HIERARQ_QUERY_ELIMINATION_H_

/// \file elimination.h
/// \brief The elimination procedure for hierarchical queries
/// (paper Proposition 5.1) compiled into a reusable plan.
///
/// The procedure repeatedly applies:
///   * Rule 1 — eliminate a "private" variable Y occurring in exactly one
///     atom R(X): replace R(X) by R'(X \ {Y});
///   * Rule 2 — merge two atoms R1(X), R2(X) with the same variable set
///     into one atom R'(X);
/// and succeeds (reduces the query to a single nullary atom) iff the query
/// is hierarchical. `EliminationPlan::Build` runs the procedure once on the
/// query *structure* and records the step sequence; Algorithm 1
/// (core/algorithm1.h) then replays the plan over any K-annotated database,
/// using ⊕ for Rule 1 and ⊗ for Rule 2. Splitting plan from execution keeps
/// the per-monoid executors trivial and makes the step sequence testable
/// against the paper's worked Examples 5.2–5.4.

#include <string>
#include <vector>

#include "hierarq/query/query.h"
#include "hierarq/query/var_set.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Which rule of Proposition 5.1 a step applies.
enum class EliminationRule {
  kProjectVariable,  ///< Rule 1: ⊕-aggregate a private variable away.
  kMergeAtoms,       ///< Rule 2: ⊗-combine two atoms over equal schemas.
};

/// One recorded elimination step. Atom ids index a growing space:
/// ids [0, num_base_atoms) are the query's atoms in order; each step mints
/// the next id for its result.
struct EliminationStep {
  EliminationRule rule;

  // Rule 1 fields.
  size_t source_atom = 0;  ///< Valid when rule == kProjectVariable.
  VarId variable = 0;      ///< The eliminated private variable.
  /// Position of `variable` in the source atom's (sorted) schema, computed
  /// once at plan build so Algorithm 1's inner loop never searches for it.
  size_t drop_pos = 0;

  // Rule 2 fields.
  size_t left_atom = 0;   ///< Valid when rule == kMergeAtoms.
  size_t right_atom = 0;  ///< Valid when rule == kMergeAtoms.

  size_t result_atom = 0;  ///< Freshly minted atom id.

  /// Rule 2 → Rule 1 fusion link, set once by `EliminationPlan::Build`.
  /// When a Rule 2 step's result is read by a Rule 1 step, that Rule 1
  /// step is always the next one (a merge can make only its own result's
  /// variables private). Such a pair stores each other's step index here;
  /// Algorithm 1 then runs both as one kernel that ⊕-aggregates the join
  /// straight into the Rule 1 result, never materializing the Rule 2
  /// result. `kNotFused` on every other step.
  size_t fused_with = kNotFused;
  static constexpr size_t kNotFused = ~size_t{0};
};

/// A compiled elimination plan for a hierarchical SJF-BCQ.
class EliminationPlan {
 public:
  /// Runs the elimination procedure on `query`. Fails with
  /// kNotHierarchical — including a concrete violation witness in the
  /// message — iff the procedure gets stuck (Proposition 5.1).
  static Result<EliminationPlan> Build(const ConjunctiveQuery& query);

  const std::vector<EliminationStep>& steps() const { return steps_; }

  /// Number of atoms in the source query; plan-atom ids below this value
  /// denote base relations (in query atom order).
  size_t num_base_atoms() const { return num_base_atoms_; }

  /// Total number of plan-atom ids (base + intermediate results).
  size_t num_atoms() const { return vars_.size(); }

  /// Id of the final nullary atom whose annotation is the algorithm output.
  /// For a query that is already `Q() :- R()`, this is atom 0 and the plan
  /// has no steps.
  size_t final_atom() const { return final_atom_; }

  /// Variable set (schema) of any plan atom.
  const VarSet& vars_of(size_t atom_id) const;

  /// Display name of any plan atom (base relation name, or derived name
  /// with one prime per derivation, mirroring the paper's notation).
  const std::string& name_of(size_t atom_id) const;

  /// Renders the step sequence in the style of Example 5.2.
  std::string ToString(const VariableTable& variables) const;

 private:
  std::vector<EliminationStep> steps_;
  std::vector<VarSet> vars_;         // Indexed by plan-atom id.
  std::vector<std::string> names_;   // Indexed by plan-atom id.
  size_t num_base_atoms_ = 0;
  size_t final_atom_ = 0;
};

}  // namespace hierarq

#endif  // HIERARQ_QUERY_ELIMINATION_H_
