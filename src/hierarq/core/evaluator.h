#ifndef HIERARQ_CORE_EVALUATOR_H_
#define HIERARQ_CORE_EVALUATOR_H_

/// \file evaluator.h
/// \brief `Evaluator` — the amortizing front door to Algorithm 1.
///
/// Algorithm 1 splits into a query-only phase (building the
/// `EliminationPlan`, Proposition 5.1) and a data phase (annotating and
/// replaying the plan). Workloads that evaluate the *same* query against
/// *many* databases — Shapley values run Algorithm 1 O(n²) times on
/// perturbed databases, the CLI and servers answer the same query per
/// request — were paying the plan build and fresh hash-table allocations
/// on every call. `Evaluator` amortizes both:
///
///   * plans are cached per canonical query text, so the second and later
///     evaluations of a query skip `EliminationPlan::Build` entirely;
///   * the per-monoid scratch vector of annotated relations is kept
///     between runs; `AnnotatedRelation::Reset` drops entries but keeps
///     each table's slot array, so steady-state evaluation allocates
///     nothing but the tuples themselves.
///
/// The data phase splits once more for multi-query batching (the service
/// layer, service/eval_service.h): `AnnotateForQuerySet` annotates the
/// base relations once for a whole set of queries, and `ReplayPlan`
/// replays one query's plan against those shared annotations, reading
/// them in place: a replay copies no base relation, and its scratch holds
/// only the plan's intermediates (`scratch_bytes`). An Evaluator is
/// single-threaded by design (one per worker); plans are immutable after
/// build, so workers share a thread-safe `PlanProvider`
/// (service/shared_plan_cache.h) while each keeps private scratch. Every
/// evaluation ends in the one serial step loop, `RunAlgorithm1InPlace`
/// (core/algorithm1.h); parallelism lives a level up, across queries
/// (service/eval_service.h).

#include <memory>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/database.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Where an evaluator gets its compiled plans. `Evaluator` itself
/// implements it with a private single-threaded cache; `SharedPlanCache`
/// (service/shared_plan_cache.h) implements it thread-safely so N workers
/// can stand behind one build-once cache.
class PlanProvider {
 public:
  virtual ~PlanProvider() = default;

  /// Returns the plan for `query`, building it on first sight. The pointer
  /// stays valid for the provider's lifetime. Fails with kNotHierarchical
  /// exactly as EliminationPlan::Build does.
  virtual Result<const EliminationPlan*> GetPlan(
      const ConjunctiveQuery& query) = 0;
};

/// Canonical annotation signature of an atom: the relation name with each
/// term rendered as a constant or as its variable's rank in the atom's
/// (VarId-ascending) variable set — e.g. "R(v0,#7,v1,v0)". Two atoms with
/// equal signatures produce identical annotated relations over the same
/// annotated database, up to schema labels: the constant selections, the
/// repeated-variable positions, and the projection order (ascending VarId
/// = ascending rank) all coincide. This is the sharing key of
/// `AnnotateForQuerySet`.
std::string AtomAnnotationSignature(const Atom& atom);

/// A shared pool of base-relation annotations for a *set* of queries over
/// one database: the annotate-once half of the batching split. Entries are
/// keyed by `AtomAnnotationSignature`, so atoms that differ only in
/// variable names — R(A,B) in one query, R(X,Y) in another — share one
/// annotated relation. An entry keeps the variable labels of the atom
/// that first annotated it; replays read it in place and check schemas
/// against their own plan, so the labels never matter.
template <typename K>
struct AnnotationPool {
  std::unordered_map<std::string, AnnotatedRelation<K>> by_signature;
  size_t scans = 0;   ///< Base-relation annotation passes performed.
  size_t reused = 0;  ///< Atom occurrences served by an existing pass.

  const AnnotatedRelation<K>* Find(const std::string& signature) const {
    auto it = by_signature.find(signature);
    return it == by_signature.end() ? nullptr : &it->second;
  }
};

/// Extends `pool` with the annotations `queries` need over `facts` that it
/// does not already hold, sharing work between atoms with equal
/// signatures: one scan (and one annotator call per matching tuple) per
/// distinct *missing* signature. Signatures already pooled — by an earlier
/// call against the same database snapshot, e.g. through the service
/// layer's generation-keyed annotation cache — are counted in
/// `pool->reused` and not re-scanned. Replays read pool relations in
/// place (`Evaluator::ReplayPlan`).
template <typename K, typename Combine>
void AnnotateForQuerySetInto(
    const std::vector<const ConjunctiveQuery*>& queries,
    const Database& facts, const std::function<K(const Fact&)>& annotator,
    Combine combine, AnnotationPool<K>* pool) {
  for (const ConjunctiveQuery* query : queries) {
    for (const Atom& atom : query->atoms()) {
      auto [it, inserted] =
          pool->by_signature.try_emplace(AtomAnnotationSignature(atom));
      if (!inserted) {
        ++pool->reused;
        continue;
      }
      ++pool->scans;
      AnnotatedRelation<K>& out = it->second;
      out.Reset(atom.vars());
      const Relation* relation = facts.FindRelation(atom.relation());
      if (relation != nullptr) {
        out.Reserve(relation->size());
        AnnotateAtom<K>(atom, *relation, annotator, combine, &out);
      }
    }
  }
}

/// Annotates the base relations needed by `queries` over `facts` into a
/// fresh pool (see AnnotateForQuerySetInto). The batch entry point of the
/// service layer; the per-query path (`Evaluator::Evaluate`) keeps its
/// direct annotation loop.
template <typename K, typename Combine>
AnnotationPool<K> AnnotateForQuerySet(
    const std::vector<const ConjunctiveQuery*>& queries,
    const Database& facts, const std::function<K(const Fact&)>& annotator,
    Combine combine) {
  AnnotationPool<K> pool;
  AnnotateForQuerySetInto(queries, facts, annotator, combine, &pool);
  return pool;
}

/// Resolves one shared base relation per atom of `query` from `pool`, in
/// atom order — the `bases` input of `Evaluator::ReplayPlan`. CHECKs that
/// the pool covers every atom. Callers resolve once per (query, pool)
/// pair so replays never rebuild signature strings.
template <typename K>
std::vector<const AnnotatedRelation<K>*> ResolveBases(
    const ConjunctiveQuery& query, const AnnotationPool<K>& pool) {
  std::vector<const AnnotatedRelation<K>*> bases;
  bases.reserve(query.num_atoms());
  for (const Atom& atom : query.atoms()) {
    const AnnotatedRelation<K>* shared =
        pool.Find(AtomAnnotationSignature(atom));
    HIERARQ_CHECK(shared != nullptr)
        << "annotation pool lacks " << AtomAnnotationSignature(atom);
    bases.push_back(shared);
  }
  return bases;
}

class Evaluator : public PlanProvider {
 public:
  /// Cache observability, used by tests and ops counters.
  struct Stats {
    size_t plans_built = 0;      ///< EliminationPlan::Build invocations.
    size_t plan_cache_hits = 0;  ///< Evaluations that reused a cached plan.
    size_t evaluations = 0;      ///< Successful Evaluate/ReplayPlan calls.
  };

  Evaluator() = default;

  /// An evaluator whose plans come from `plans` (non-owning; must outlive
  /// this evaluator) instead of the private cache — the per-worker
  /// configuration: N workers share one `SharedPlanCache` and keep private
  /// scratch. In this mode stats().plans_built / plan_cache_hits stay
  /// zero; the shared provider tracks them.
  explicit Evaluator(PlanProvider* plans) : shared_plans_(plans) {}

  // The scratch tables and plan cache are identity, not value.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Returns the cached plan for `query`, building (and caching) it on
  /// first sight. The pointer stays valid for the Evaluator's lifetime.
  /// Fails with kNotHierarchical exactly as EliminationPlan::Build does;
  /// failures are not cached (they are cheap to re-derive and callers
  /// usually stop at the first one).
  Result<const EliminationPlan*> GetPlan(
      const ConjunctiveQuery& query) override;

  /// Evaluates `query` over `facts` in the given 2-monoid: annotates each
  /// matching fact with `annotator(fact)` (duplicates ⊕-merge) into this
  /// evaluator's own base tables and replays the cached plan over them.
  /// Equivalent to RunAlgorithm1OnQuery, minus the repeated plan builds
  /// and table allocations.
  template <TwoMonoid M>
  Result<typename M::value_type> Evaluate(
      const ConjunctiveQuery& query, const M& monoid, const Database& facts,
      const std::function<typename M::value_type(const Fact&)>& annotator) {
    using K = typename M::value_type;
    HIERARQ_ASSIGN_OR_RETURN(const EliminationPlan* plan, GetPlan(query));

    Scratch<K>& scratch = ScratchForPlan<K>(*plan);
    const auto plus = [&monoid](const K& a, const K& b) {
      return monoid.Plus(a, b);
    };
    scratch.bases.clear();
    for (size_t i = 0; i < plan->num_base_atoms(); ++i) {
      const Atom& atom = query.atoms()[i];
      AnnotatedRelation<K>& table = scratch.relations[i];
      table.Reset(atom.vars());
      const Relation* relation = facts.FindRelation(atom.relation());
      if (relation != nullptr) {
        table.Reserve(relation->size());
        AnnotateAtom<K>(atom, *relation, annotator, plus, &table);
      }
      scratch.bases.push_back(&table);
    }

    ++stats_.evaluations;
    return Run(*plan, monoid, scratch.bases, scratch.relations);
  }

  /// The replay-many half of the batching split: replays `plan` over
  /// shared base annotations (one pre-resolved pointer per base atom, in
  /// atom order — e.g. looked up in an AnnotationPool once per group, on
  /// the caller thread, so workers never build signature strings). The
  /// bases are read in place and never written, so any number of
  /// concurrent replays may share them as long as each runs on its own
  /// Evaluator; only intermediates go to this evaluator's scratch.
  /// Precondition: `plan` is the plan of `query`.
  template <TwoMonoid M>
  typename M::value_type ReplayPlan(
      const EliminationPlan& plan, const M& monoid,
      const ConjunctiveQuery& query,
      const std::vector<const AnnotatedRelation<typename M::value_type>*>&
          bases) {
    using K = typename M::value_type;
    HIERARQ_CHECK_EQ(bases.size(), plan.num_base_atoms());
    for (size_t i = 0; i < plan.num_base_atoms(); ++i) {
      HIERARQ_CHECK(bases[i] != nullptr);
      HIERARQ_CHECK_EQ(bases[i]->schema().size(),
                       query.atoms()[i].vars().size());
    }
    Scratch<K>& scratch = ScratchForPlan<K>(plan);
    ++stats_.evaluations;
    return Run(plan, monoid, bases, scratch.relations);
  }

  /// Convenience overload resolving the base relations from `pool` by
  /// atom signature. Precondition: `pool` covers all of `query`'s atoms
  /// (CHECKed).
  template <TwoMonoid M>
  typename M::value_type ReplayPlan(
      const EliminationPlan& plan, const M& monoid,
      const ConjunctiveQuery& query,
      const AnnotationPool<typename M::value_type>& pool) {
    return ReplayPlan(plan, monoid, query, ResolveBases(query, pool));
  }

  const Stats& stats() const { return stats_; }

  /// Number of distinct queries with a cached plan (always 0 when plans
  /// are delegated to a shared provider).
  size_t num_cached_plans() const { return plans_.size(); }

  /// Bytes held by this evaluator's scratch tables, over every monoid
  /// domain it has run (AnnotatedRelation::bytes): intermediates, plus
  /// the base tables `Evaluate` annotates. Replays add no base tables.
  size_t scratch_bytes() const {
    size_t total = 0;
    for (const auto& [type, scratch] : scratch_) {
      total += scratch->bytes();
    }
    return total;
  }

  /// Drops all locally cached plans and scratch buffers. A shared plan
  /// provider, if any, is not touched.
  void ClearCache();

 private:
  /// The single exit of Evaluate and every ReplayPlan overload, and the
  /// single observability point — one global counter bump and, when a
  /// tracer is installed, one enclosing span around the step events the
  /// step loop emits.
  template <TwoMonoid M>
  typename M::value_type Run(
      const EliminationPlan& plan, const M& monoid,
      const std::vector<const AnnotatedRelation<typename M::value_type>*>&
          bases,
      std::vector<AnnotatedRelation<typename M::value_type>>& relations) {
    static obs::Counter* const evaluations =
        obs::MetricsRegistry::Global().GetCounter("evaluator.evaluations");
    evaluations->Add();
    obs::Span span("evaluate", "evaluator");
    // Per-evaluation accounting (obs/query_stats.h): this is the single
    // exit of every evaluation, so the one clock edge here is the
    // request's exec_ns. Reads the clock only when a collector is
    // installed.
    obs::QueryStats* const query_stats = obs::CurrentQueryStats();
    const uint64_t start_ns =
        query_stats != nullptr ? obs::Tracer::NowNs() : 0;
    typename M::value_type value =
        RunAlgorithm1InPlace(plan, monoid, bases, relations);
    if (query_stats != nullptr) {
      query_stats->exec_ns += obs::Tracer::NowNs() - start_ns;
    }
    return value;
  }

  struct ScratchBase {
    virtual ~ScratchBase() = default;
    virtual size_t bytes() const = 0;
  };
  /// One monoid domain's tables, indexed by plan atom id: `Evaluate`'s
  /// annotated base tables in the base slots (replays leave those slots
  /// alone), intermediates above them.
  template <typename K>
  struct Scratch : ScratchBase {
    std::vector<AnnotatedRelation<K>> relations;
    std::vector<const AnnotatedRelation<K>*> bases;  ///< Evaluate's inputs.
    size_t bytes() const override {
      size_t total = 0;
      for (const AnnotatedRelation<K>& relation : relations) {
        total += relation.bytes();
      }
      return total;
    }
  };

  /// The scratch for annotation type K. One live scratch per K:
  /// evaluating in a new monoid domain does not invalidate others.
  template <typename K>
  Scratch<K>& ScratchFor() {
    std::unique_ptr<ScratchBase>& slot = scratch_[std::type_index(typeid(K))];
    if (slot == nullptr) {
      slot = std::make_unique<Scratch<K>>();
    }
    return *static_cast<Scratch<K>*>(slot.get());
  }

  /// Scratch sized for `plan`, shrinking or growing while keeping the
  /// common prefix: consecutive queries with different atom counts reuse
  /// the prefix tables' slot arrays instead of reallocating every table.
  /// Stale entries in kept tables are harmless — `Evaluate` Resets every
  /// base slot it reads and every intermediate slot is Reset by its step
  /// before use.
  template <typename K>
  Scratch<K>& ScratchForPlan(const EliminationPlan& plan) {
    Scratch<K>& scratch = ScratchFor<K>();
    if (scratch.relations.size() != plan.num_atoms()) {
      scratch.relations.resize(plan.num_atoms());
    }
    return scratch;
  }

  PlanProvider* shared_plans_ = nullptr;  // Non-owning; nullptr = private.
  // unique_ptr values keep plan addresses stable across cache rehashes.
  std::unordered_map<std::string, std::unique_ptr<EliminationPlan>> plans_;
  std::unordered_map<std::type_index, std::unique_ptr<ScratchBase>> scratch_;
  Stats stats_;
};

}  // namespace hierarq

#endif  // HIERARQ_CORE_EVALUATOR_H_
