#ifndef HIERARQ_CORE_ALGORITHM1_H_
#define HIERARQ_CORE_ALGORITHM1_H_

/// \file algorithm1.h
/// \brief The paper's Algorithm 1: the general-purpose evaluator for
/// hierarchical SJF-BCQs over any 2-monoid.
///
/// The algorithm replays a compiled `EliminationPlan` (Proposition 5.1)
/// over a K-annotated database:
///   * Rule 1 (private variable Y of atom R(X)):
///       R'(x') = ⊕_{y ∈ Dom} R(x', y)
///     implemented as a hash ⊕-aggregation over the support of R — absent
///     facts annotate to 0, the ⊕ identity, so they contribute nothing;
///   * Rule 2 (atoms R1(X), R2(X) with equal variable sets):
///       R'(x) = R1(x) ⊗ R2(x)
///     implemented over the *union* of supports. This is the one subtle
///     point: a 2-monoid guarantees only 0 ⊗ 0 = 0 (Definition 5.6), not
///     annihilation, so a fact present in R1 but not R2 contributes
///       R1(x) ⊗ 0, which may be non-zero (it is in the #Sat monoid).
///     Only absent-absent pairs may be skipped — exactly the argument of
///     Lemma 6.6, which bounds supp(R') ⊆ supp(R1) ∪ supp(R2).
///
/// Hot-path mechanics: the position of a Rule 1 projection is precomputed
/// in the plan (`EliminationStep::drop_pos`), and both rules run as
/// column-store bulk operations (`ColumnarStore::ProjectDropInto` /
/// `JoinUnionInto`): a projection reads only its surviving columns, and a
/// Rule 2 result is `Reserve`d to its Lemma 6.6 support bound and built
/// with compare-free inserts. A Rule 2 step whose result feeds the next
/// step's Rule 1 projection (the plan's fusion link,
/// `EliminationStep::fused_with`) runs with that step as one kernel,
/// `ColumnarStore::JoinUnionProjectInto`, which ⊕-aggregates the join
/// straight into the projected result in the unfused visiting order, so
/// answers stay bit-identical. Base relations are read in place through
/// const pointers — shared annotation-pool entries or the caller's own
/// tables — and never copied; only intermediates live in the caller's
/// scratch vector, so `Evaluator` (core/evaluator.h) reuses their buffers
/// across runs. `RunAlgorithm1InPlace` is the one batch step loop:
/// `RunAlgorithm1`, `Evaluator` and the service layer all end in it, and
/// it polls the deadline checkpoint, bumps `QueryStats`, and emits trace
/// step events, one per plan step, fused or not. (An incremental view
/// keeps every intermediate, so its materialization runs its own unfused
/// pass; incremental/incremental_view.h.)
///
/// The returned value is the annotation of the final nullary atom's empty
/// tuple, or Zero() when its support is empty (an empty ⊕). Total work is
/// O(|D|) ⊕/⊗ operations (Theorem 6.7).

#include <utility>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/cancel.h"
#include "hierarq/data/annotated.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Runs Algorithm 1 over `bases` (one relation per base atom, in query
/// atom order, read in place and never written) with intermediates in
/// `scratch`, which must have `plan.num_atoms()` entries indexed by plan
/// atom id; its base-atom slots are not touched, so a caller may keep the
/// base tables there itself. Intermediate slots are Reset as their steps
/// execute; consumed intermediates are Cleared (capacity retained for
/// reuse). A base relation's variable labels may differ from the plan's
/// (a shared pool entry keeps the labels of the first query that
/// annotated it), so schema checks compare plan schemas and store arity.
template <TwoMonoid M>
typename M::value_type RunAlgorithm1InPlace(
    const EliminationPlan& plan, const M& monoid,
    const std::vector<const AnnotatedRelation<typename M::value_type>*>&
        bases,
    std::vector<AnnotatedRelation<typename M::value_type>>& scratch) {
  using K = typename M::value_type;

  HIERARQ_CHECK_EQ(bases.size(), plan.num_base_atoms());
  HIERARQ_CHECK_EQ(scratch.size(), plan.num_atoms());

  const auto plus = [&monoid](const K& a, const K& b) {
    return monoid.Plus(a, b);
  };
  const auto times = [&monoid](const K& a, const K& b) {
    return monoid.Times(a, b);
  };
  const size_t num_bases = plan.num_base_atoms();
  // A step input: base atoms in place, intermediates from scratch.
  const auto input = [&](size_t atom) -> const ColumnarStore<K>& {
    const ColumnarStore<K>& store =
        atom < num_bases ? bases[atom]->store() : scratch[atom].store();
    HIERARQ_CHECK_EQ(store.arity(), plan.vars_of(atom).size());
    return store;
  };
  // Frees a consumed intermediate; base relations are never written.
  const auto release = [&](size_t atom) {
    if (atom >= num_bases) {
      scratch[atom].Clear();
    }
  };
  const auto reset_result = [&](size_t atom) {
    AnnotatedRelation<K>& result = scratch[atom];
    result.Reset(plan.vars_of(atom));
    return result.mutable_store();
  };
  const auto check_projection = [&](const EliminationStep& step) {
    const VarSet& source_vars = plan.vars_of(step.source_atom);
    HIERARQ_CHECK_LT(step.drop_pos, source_vars.size());
    HIERARQ_CHECK_EQ(source_vars[step.drop_pos], step.variable);
  };

  // Hoisted once per run: the untraced hot path pays one null check per
  // step, no clock reads, no event stores. Same deal for the per-query
  // stats collector (obs/query_stats.h).
  obs::Tracer* const tracer = obs::Tracer::Current();
  obs::QueryStats* const query_stats = obs::CurrentQueryStats();
  const std::vector<EliminationStep>& steps = plan.steps();
  // Join support of the fused Rule 2 step just run: the input row count
  // its Rule 1 partner (the next step) reports.
  uint64_t fused_join_rows = 0;
  for (size_t step_index = 0; step_index < steps.size(); ++step_index) {
    const EliminationStep& step = steps[step_index];
    const bool fused = step.fused_with != EliminationStep::kNotFused;
    // Deadline gate: between steps every intermediate is a complete
    // relation, so this is the one safe place to abandon the run.
    CancellationCheckpoint();

    const uint64_t start_ns = tracer != nullptr ? obs::Tracer::NowNs() : 0;
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
    if (step.rule == EliminationRule::kProjectVariable) {
      // Rule 1: ⊕-project `step.variable` out of `step.source_atom`.
      check_projection(step);
      if (fused) {
        // The Rule 2 step before already filled the result.
        rows_in = fused_join_rows;
      } else {
        const ColumnarStore<K>& source = input(step.source_atom);
        rows_in = source.size();
        source.ProjectDropInto(step.drop_pos, plus,
                               reset_result(step.result_atom));
        release(step.source_atom);
      }
      rows_out = scratch[step.result_atom].size();
    } else {
      // Rule 2: ⊗-join over the union of supports.
      HIERARQ_CHECK(plan.vars_of(step.left_atom) ==
                    plan.vars_of(step.right_atom))
          << "Rule 2 requires equal schemas";
      const ColumnarStore<K>& left = input(step.left_atom);
      const ColumnarStore<K>& right = input(step.right_atom);
      rows_in = left.size() + right.size();
      if (fused) {
        // Project the join straight into the consuming step's result.
        const EliminationStep& consumer = steps[step.fused_with];
        HIERARQ_CHECK_EQ(consumer.source_atom, step.result_atom);
        check_projection(consumer);
        fused_join_rows = ColumnarStore<K>::JoinUnionProjectInto(
            left, right, consumer.drop_pos, times, plus, monoid.Zero(),
            reset_result(consumer.result_atom));
        rows_out = fused_join_rows;
      } else {
        ColumnarStore<K>* result = reset_result(step.result_atom);
        ColumnarStore<K>::JoinUnionInto(left, right, times, monoid.Zero(),
                                        result);
        rows_out = result->size();
      }
      release(step.left_atom);
      release(step.right_atom);
    }
    const uint8_t rule =
        step.rule == EliminationRule::kProjectVariable ? 1 : 2;
    if (query_stats != nullptr) {
      query_stats->RecordStep(rule, rows_in, rows_out);
    }
    if (tracer != nullptr) {
      obs::TraceStepArgs args;
      args.step_index = static_cast<uint32_t>(step_index);
      args.rule = rule;
      args.simd = simd::ActiveLevel();
      args.rows_in = rows_in;
      args.rows_out = rows_out;
      args.fused = fused;
      tracer->EmitStep(start_ns, obs::Tracer::NowNs(), args);
    }
  }

  // The final atom is nullary; its only possible key is the empty tuple.
  // An intermediate's annotation is moved out (it can be a whole
  // provenance tree or #Sat vector) and the slot cleared so a reused
  // scratch doesn't retain it; a base final atom (a query `Q() :- R()`)
  // is only read.
  const size_t final_atom = plan.final_atom();
  if (final_atom < num_bases) {
    const K* value = bases[final_atom]->Find(Tuple{});
    return value == nullptr ? monoid.Zero() : *value;
  }
  AnnotatedRelation<K>& final_rel = scratch[final_atom];
  auto [slot, inserted] = final_rel.FindOrInsert(Tuple{});
  K result = inserted ? monoid.Zero() : std::move(*slot);
  final_rel.Clear();
  return result;
}

/// Runs Algorithm 1 over a pre-built plan and annotated database.
/// `input.relations` must be indexed by query atom position (as produced by
/// `AnnotateForQuery`). Consumes `input`.
template <TwoMonoid M>
typename M::value_type RunAlgorithm1(
    const EliminationPlan& plan, const M& monoid,
    AnnotatedDatabase<typename M::value_type>&& input) {
  using K = typename M::value_type;

  HIERARQ_CHECK_EQ(input.relations.size(), plan.num_base_atoms());
  std::vector<AnnotatedRelation<K>> relations(plan.num_atoms());
  std::vector<const AnnotatedRelation<K>*> bases;
  bases.reserve(plan.num_base_atoms());
  for (size_t i = 0; i < plan.num_base_atoms(); ++i) {
    relations[i] = std::move(input.relations[i]);
    bases.push_back(&relations[i]);
  }
  return RunAlgorithm1InPlace(plan, monoid, bases, relations);
}

/// Convenience wrapper: plans the query, annotates `facts` via `annotator`
/// and runs Algorithm 1. Fails with
/// kNotHierarchical for non-hierarchical queries. Callers that evaluate
/// repeatedly should hold an `Evaluator` (core/evaluator.h) instead, which
/// caches the plan and reuses buffers.
template <TwoMonoid M>
Result<typename M::value_type> RunAlgorithm1OnQuery(
    const ConjunctiveQuery& query, const M& monoid, const Database& facts,
    const std::function<typename M::value_type(const Fact&)>& annotator) {
  using K = typename M::value_type;
  HIERARQ_ASSIGN_OR_RETURN(EliminationPlan plan,
                           EliminationPlan::Build(query));
  auto annotated = AnnotateForQuery<K>(
      query, facts, annotator,
      [&monoid](const K& a, const K& b) { return monoid.Plus(a, b); });
  return RunAlgorithm1(plan, monoid, std::move(annotated));
}

}  // namespace hierarq

#endif  // HIERARQ_CORE_ALGORITHM1_H_
