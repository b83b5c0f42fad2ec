// Oracle differential harness: the column-store Algorithm 1 engine
// (`Evaluator` and the solvers built on it) against the independent
// reference implementations in engine/.
//
// Seeded random hierarchical queries and databases (workload/) drive
// every solver, and each answer is compared with an oracle that shares
// no code with Algorithm 1:
//   * count and Boolean evaluation: the backtracking join engine
//     (`BagSetCount`, `EvaluateBoolean`), on every instance;
//   * PQE, expected multiplicity, the tropical min-plus value,
//     resilience, Shapley values and bag-set maximization: brute-force
//     enumeration of worlds, assignments, removal sets, subsets and
//     repairs (engine/bruteforce.h), on instances small enough for it.
// Exact monoids (count, Boolean, resilience, Shapley fractions, bag-set
// profiles) must match bit for bit. Floating-point monoids (PQE,
// expectation, tropical) must match within 1e-11 relative: the oracles
// sum in a different order, and double addition is not associative.
// Edge cases get dedicated instances: empty and missing base relations,
// duplicate-key (bag) merges, and single-fact supports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hierarq/hierarq.h"

namespace hierarq {
namespace {

constexpr double kFloatTolerance = 1e-11;

uint64_t AlgorithmCount(Evaluator& evaluator, const ConjunctiveQuery& q,
                        const Database& db) {
  auto result = evaluator.Evaluate<CountMonoid>(
      q, CountMonoid{}, db, [](const Fact&) -> uint64_t { return 1; });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : 0;
}

// Relative closeness with an absolute floor of kFloatTolerance, for the
// floating monoids.
void ExpectClose(double a, double b, const std::string& context) {
  if (a == b) {
    return;  // Also covers ±inf (the tropical zero).
  }
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, kFloatTolerance * scale) << context;
}

// Removes every fact of `relation` from a copy of `db` — produces the
// "base relation entirely absent" edge case for one atom.
Database DropRelation(const Database& db, const std::string& relation) {
  Database out;
  for (const Fact& fact : db.AllFacts()) {
    if (fact.relation != relation) {
      out.AddFactOrDie(fact.relation, fact.tuple);
    }
  }
  return out;
}

ConjunctiveQuery RandomQuery(Rng& rng) {
  RandomHierarchicalOptions opts;
  opts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
  opts.num_roots = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
  return MakeRandomHierarchical(rng, opts);
}

// The fact an atom maps to under one satisfying assignment; `values` are
// the query variables' values in ascending VarId order, as
// EnumerateAssignments reports them.
Fact AtomFact(const ConjunctiveQuery& q, const Atom& atom,
              const std::vector<Value>& values) {
  const VarSet all = q.AllVars();
  Fact fact{atom.relation(), Tuple{}};
  for (const Term& term : atom.terms()) {
    if (term.is_constant()) {
      fact.tuple.push_back(term.constant());
      continue;
    }
    size_t rank = 0;
    while (all[rank] != term.var()) {
      ++rank;
    }
    fact.tuple.push_back(values[rank]);
  }
  return fact;
}

// E[Q] = Σ_worlds P(world) · Q(world), enumerated over all 2^|D| worlds.
double BruteForceExpectation(const ConjunctiveQuery& q,
                             const TidDatabase& db) {
  const auto facts = db.AllFacts();
  HIERARQ_CHECK_LE(facts.size(), 20u);
  double total = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << facts.size()); ++mask) {
    double weight = 1.0;
    Database world;
    for (size_t i = 0; i < facts.size(); ++i) {
      if ((mask >> i) & 1) {
        weight *= facts[i].second;
        world.AddFactOrDie(facts[i].first.relation, facts[i].first.tuple);
      } else {
        weight *= 1.0 - facts[i].second;
      }
    }
    if (weight > 0.0) {
      total += weight * static_cast<double>(BagSetCount(q, world));
    }
  }
  return total;
}

// Tropical (min, +) value: the cheapest satisfying assignment, where an
// assignment costs the sum of its facts' weights; +inf when none exists.
double BruteForceTropical(const ConjunctiveQuery& q, const TidDatabase& db) {
  double best = std::numeric_limits<double>::infinity();
  EnumerateAssignments(q, db.facts(), [&](const std::vector<Value>& values) {
    double cost = 0.0;
    for (const Atom& atom : q.atoms()) {
      cost += db.Probability(AtomFact(q, atom, values));
    }
    best = std::min(best, cost);
    return true;
  });
  return best;
}

// Which plan shapes an instance exercises: a Rule 2 step fused with the
// Rule 1 that consumes it (one JoinUnionProjectInto kernel), and a Rule 2
// step reading another Rule 2's result (a materialized join).
struct PlanShape {
  bool fused = false;
  bool chain = false;
};

PlanShape ShapeOf(const ConjunctiveQuery& q) {
  auto plan = EliminationPlan::Build(q);
  HIERARQ_CHECK(plan.ok());
  PlanShape shape;
  const auto is_merge_result = [&](size_t atom) {
    return atom >= plan->num_base_atoms() &&
           plan->steps()[atom - plan->num_base_atoms()].rule ==
               EliminationRule::kMergeAtoms;
  };
  for (const EliminationStep& step : plan->steps()) {
    if (step.rule != EliminationRule::kMergeAtoms) {
      continue;
    }
    shape.fused |= step.fused_with != EliminationStep::kNotFused;
    shape.chain |=
        is_merge_result(step.left_atom) || is_merge_result(step.right_atom);
  }
  return shape;
}

// ----------------------------------------------------- count and Boolean --

TEST(OracleDifferential, CountAndBooleanMatchJoinEngine) {
  Evaluator evaluator;
  size_t instances = 0;
  size_t fused = 0;
  size_t chained = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(1000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    const PlanShape shape = ShapeOf(q);
    fused += shape.fused ? 1 : 0;
    chained += shape.chain ? 1 : 0;
    DataGenOptions dopts;
    // Includes 0 (all relations empty) and 1 (single-fact supports).
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 50));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 14));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const std::string context =
        "seed=" + std::to_string(seed) + " query=" + q.ToString();

    const uint64_t expected = BagSetCount(q, db);
    EXPECT_EQ(AlgorithmCount(evaluator, q, db), expected) << context;
    auto direct = BagSetCountHierarchical(q, db);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(*direct, expected) << context;
    auto boolean = evaluator.Evaluate<BoolMonoid>(
        q, BoolMonoid{}, db, [](const Fact&) { return true; });
    ASSERT_TRUE(boolean.ok());
    EXPECT_EQ(*boolean, EvaluateBoolean(q, db)) << context;
    ++instances;

    // Variant: first atom's base relation missing entirely.
    const Database dropped = DropRelation(db, q.atoms()[0].relation());
    EXPECT_EQ(BagSetCount(q, dropped), 0u);  // An empty conjunct kills Q().
    EXPECT_EQ(AlgorithmCount(evaluator, q, dropped), 0u) << context;
    ++instances;
  }
  EXPECT_GE(instances, 160u);
  // Floors on the plan shapes the step loop special-cases (59 and 25 of
  // the 80 queries today), so a generator change cannot quietly stop
  // covering them.
  EXPECT_GE(fused, 40u);
  EXPECT_GE(chained, 15u);
}

// ------------------------------------------------------ duplicate merges --

TEST(OracleDifferential, BagAnnotationsMergeLikeRepeatedFacts) {
  // Set databases cannot produce duplicate annotated keys, so bag inputs
  // are simulated the way AnnotateAtom's contract allows: annotating the
  // same relation `m` times into one output with ⊕ as the combiner. Every
  // key then carries m, and each satisfying assignment uses one key per
  // atom, so Q = m^atoms · BagSetCount.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(7000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 1 + static_cast<size_t>(rng.UniformInt(0, 20));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 6));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const uint64_t multiplicity = 2 + seed % 3;

    auto plan = EliminationPlan::Build(q);
    ASSERT_TRUE(plan.ok());
    const CountMonoid monoid;
    const auto annotator =
        std::function<uint64_t(const Fact&)>([](const Fact&) { return 1; });
    const auto plus = [&monoid](uint64_t a, uint64_t b) {
      return monoid.Plus(a, b);
    };
    AnnotatedDatabase<uint64_t> annotated;
    annotated.relations.reserve(q.num_atoms());
    for (const Atom& atom : q.atoms()) {
      AnnotatedRelation<uint64_t> rel(atom.vars());
      const Relation* relation = db.FindRelation(atom.relation());
      if (relation != nullptr) {
        for (uint64_t copy = 0; copy < multiplicity; ++copy) {
          AnnotateAtom<uint64_t>(atom, *relation, annotator, plus, &rel);
        }
      }
      annotated.relations.push_back(std::move(rel));
    }
    uint64_t expected = BagSetCount(q, db);
    for (size_t i = 0; i < q.num_atoms(); ++i) {
      expected = monoid.Times(expected, multiplicity);
    }
    EXPECT_EQ(RunAlgorithm1(*plan, monoid, std::move(annotated)), expected)
        << "seed=" << seed << " query=" << q.ToString();
  }
}

// ---------------------------------------- PQE, expectation and tropical --

TEST(OracleDifferential, FloatingMonoidsMatchEnumeration) {
  Evaluator evaluator;
  size_t compared = 0;
  size_t fused = 0;
  size_t chained = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(2000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    const PlanShape shape = ShapeOf(q);
    DataGenOptions dopts;
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 4));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    const TidDatabase tid = RandomTidForQuery(q, rng, dopts);
    if (tid.NumFacts() > 14) {
      continue;  // 2^|D| worlds: keep the enumeration small.
    }
    const std::string context =
        "seed=" + std::to_string(seed) + " query=" + q.ToString();

    auto probability = EvaluateProbability(evaluator, q, tid);
    ASSERT_TRUE(probability.ok()) << probability.status().ToString();
    ExpectClose(*probability, BruteForcePqe(q, tid), "pqe " + context);

    auto expectation = ExpectedMultiplicity(evaluator, q, tid);
    ASSERT_TRUE(expectation.ok()) << expectation.status().ToString();
    ExpectClose(*expectation, BruteForceExpectation(q, tid),
                "expectation " + context);

    auto tropical = evaluator.Evaluate<TropicalMonoid>(
        q, TropicalMonoid{}, tid.facts(),
        [&tid](const Fact& fact) { return tid.Probability(fact); });
    ASSERT_TRUE(tropical.ok());
    ExpectClose(*tropical, BruteForceTropical(q, tid), "tropical " + context);
    ++compared;
    fused += shape.fused ? 1 : 0;
    chained += shape.chain ? 1 : 0;
  }
  EXPECT_GE(compared, 50u);
  EXPECT_GE(fused, 25u);  // 35 and 12 of the compared instances today.
  EXPECT_GE(chained, 8u);
}

// ------------------------------------------------------------ resilience --

TEST(OracleDifferential, ResilienceMatchesRemovalSearch) {
  Evaluator evaluator;
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(3000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 5));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.7);
    if (endo.NumFacts() > 14) {
      continue;
    }
    auto result = ComputeResilience(evaluator, q, exo, endo);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, BruteForceResilience(q, exo, endo))
        << "seed=" << seed << " query=" << q.ToString();
    ++compared;
  }
  EXPECT_GE(compared, 50u);
}

// --------------------------------------------------------------- Shapley --

TEST(OracleDifferential, ShapleyValuesMatchSubsetEnumeration) {
  // Exact Fractions (BigUint #Sat counts), so equality is exact; the
  // instances stay small because the oracle enumerates 2^|Dn| subsets per
  // fact.
  Evaluator evaluator;
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(4000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.6);
    if (endo.NumFacts() > 12) {
      continue;
    }
    auto values = AllShapleyValues(evaluator, q, exo, endo);
    ASSERT_TRUE(values.ok()) << values.status().ToString();
    ASSERT_EQ(values->size(), endo.NumFacts());
    for (const auto& [fact, value] : *values) {
      const Fraction expected = BruteForceShapleySubsets(q, exo, endo, fact);
      EXPECT_TRUE(value == expected)
          << "seed=" << seed << " query=" << q.ToString() << ": "
          << value.ToString() << " vs " << expected.ToString();
      ++compared;
    }
  }
  EXPECT_GE(compared, 80u);
}

// --------------------------------------------------------- bag-set max --

TEST(OracleDifferential, BagSetMaxProfileMatchesRepairEnumeration) {
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(6000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    const RepairInstance inst = RandomRepairInstance(q, rng, dopts, 0.5);
    size_t candidates = 0;
    for (const Fact& fact : inst.repair.AllFacts()) {
      candidates += inst.d.ContainsFact(fact) ? 0 : 1;
    }
    if (candidates > 12) {
      continue;
    }
    const size_t budget = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    auto result = MaximizeBagSet(q, inst.d, inst.repair, budget);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->profile,
              BruteForceBagSetMax(q, inst.d, inst.repair, budget))
        << "seed=" << seed << " query=" << q.ToString();
    ++compared;
  }
  EXPECT_GE(compared, 25u);
}

// ------------------------------------------------------------ edge cases --

TEST(OracleDifferential, EdgeCaseInstances) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A,B), S(A,C), T(A)");
  Evaluator evaluator;

  // Every relation present but empty, and every relation missing: Q()
  // is false.
  Database empty_relations;
  for (const char* name : {"R", "S"}) {
    empty_relations.AddFactOrDie(name, MakeTuple({1, 1}));
    ASSERT_TRUE(empty_relations.EraseFact(Fact{name, MakeTuple({1, 1})}));
  }
  empty_relations.AddFactOrDie("T", MakeTuple({1}));
  ASSERT_TRUE(empty_relations.EraseFact(Fact{"T", MakeTuple({1})}));
  ASSERT_NE(empty_relations.FindRelation("R"), nullptr);
  const Database no_relations;
  for (const Database* db :
       std::vector<const Database*>{&empty_relations, &no_relations}) {
    EXPECT_EQ(AlgorithmCount(evaluator, q, *db), 0u);
    EXPECT_EQ(BagSetCount(q, *db), 0u);
    auto resilience = ComputeResilience(evaluator, q, Database(), *db);
    ASSERT_TRUE(resilience.ok());
    EXPECT_EQ(*resilience, BruteForceResilience(q, Database(), *db));
  }

  // Single-fact supports: exactly one satisfying assignment.
  Database single;
  single.AddFactOrDie("R", MakeTuple({1, 2}));
  single.AddFactOrDie("S", MakeTuple({1, 3}));
  single.AddFactOrDie("T", MakeTuple({1}));
  EXPECT_EQ(AlgorithmCount(evaluator, q, single), 1u);
  EXPECT_EQ(BagSetCount(q, single), 1u);
  TidDatabase tid;
  for (const Fact& fact : single.AllFacts()) {
    tid.AddFactOrDie(fact.relation, fact.tuple, 0.5);
  }
  auto probability = EvaluateProbability(evaluator, q, tid);
  ASSERT_TRUE(probability.ok());
  ExpectClose(*probability, BruteForcePqe(q, tid), "single-fact pqe");
  ExpectClose(*probability, 0.125, "single-fact pqe");

  // One atom's relation missing while the others are populated.
  const Database dropped = DropRelation(single, "S");
  EXPECT_EQ(AlgorithmCount(evaluator, q, dropped), 0u);
  EXPECT_EQ(BagSetCount(q, dropped), 0u);
}

// ------------------------------------------------- fused and chained plans --

TEST(OracleDifferential, FusedAndChainedPlansMatchOracles) {
  // Fixed shapes that pin both special cases of the step loop whatever
  // the query generator draws: R(A), S(A), T(A) merges twice in a row (a
  // Rule 2 → Rule 2 chain) before a fused pair; R(A,B), S(A,B), T(A) has
  // two fused pairs; the paper query fuses S ⊗ T' into its projection.
  Evaluator evaluator;
  size_t compared = 0;
  for (const char* text :
       {"Q() :- R(A), S(A), T(A)", "Q() :- R(A,B), S(A,B), T(A)",
        "Q() :- R(A,B), S(A,C), T(A,C,D)"}) {
    const ConjunctiveQuery q = ParseQueryOrDie(text);
    const PlanShape shape = ShapeOf(q);
    EXPECT_TRUE(shape.fused) << text;
    EXPECT_EQ(shape.chain, text == std::string("Q() :- R(A), S(A), T(A)"))
        << text;
    for (uint64_t seed = 0; seed < 16; ++seed) {
      Rng rng(8000 + seed);
      const std::string context =
          "seed=" + std::to_string(seed) + " query=" + text;
      DataGenOptions dopts;
      dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 40));
      dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 6));
      const Database db = RandomDatabaseForQuery(q, rng, dopts);
      EXPECT_EQ(AlgorithmCount(evaluator, q, db), BagSetCount(q, db))
          << context;
      auto boolean = evaluator.Evaluate<BoolMonoid>(
          q, BoolMonoid{}, db, [](const Fact&) { return true; });
      ASSERT_TRUE(boolean.ok());
      EXPECT_EQ(*boolean, EvaluateBoolean(q, db)) << context;

      // Small instances for the enumerating oracles: the floating
      // monoids, resilience, and Shapley (#Sat, whose ⊗ does not
      // annihilate, so one-sided join rows carry real values).
      DataGenOptions small;
      small.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 4));
      small.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 1));
      const TidDatabase tid = RandomTidForQuery(q, rng, small);
      if (tid.NumFacts() <= 12) {
        auto probability = EvaluateProbability(evaluator, q, tid);
        ASSERT_TRUE(probability.ok());
        ExpectClose(*probability, BruteForcePqe(q, tid), "pqe " + context);
        auto expectation = ExpectedMultiplicity(evaluator, q, tid);
        ASSERT_TRUE(expectation.ok());
        ExpectClose(*expectation, BruteForceExpectation(q, tid),
                    "expectation " + context);
        auto tropical = evaluator.Evaluate<TropicalMonoid>(
            q, TropicalMonoid{}, tid.facts(),
            [&tid](const Fact& fact) { return tid.Probability(fact); });
        ASSERT_TRUE(tropical.ok());
        ExpectClose(*tropical, BruteForceTropical(q, tid),
                    "tropical " + context);

        const auto [exo, endo] = SplitExoEndo(tid.facts(), rng, 0.6);
        auto resilience = ComputeResilience(evaluator, q, exo, endo);
        ASSERT_TRUE(resilience.ok());
        EXPECT_EQ(*resilience, BruteForceResilience(q, exo, endo)) << context;
        if (endo.NumFacts() <= 8) {
          auto values = AllShapleyValues(evaluator, q, exo, endo);
          ASSERT_TRUE(values.ok());
          for (const auto& [fact, value] : *values) {
            EXPECT_TRUE(value ==
                        BruteForceShapleySubsets(q, exo, endo, fact))
                << context;
          }
        }
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 30u);
}

// ------------------------------------------------------- service batches --

TEST(OracleDifferential, ServiceBatchesMatchJoinEngine) {
  // The service path adds shared annotation pools plus AssignFrom and
  // AdoptFrom replay on worker scratch; its answers must match the join
  // engine for every query.
  Rng rng(5000);
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RandomQuery(rng));
  }
  std::vector<const ConjunctiveQuery*> query_ptrs;
  for (const ConjunctiveQuery& q : queries) {
    query_ptrs.push_back(&q);
  }
  DataGenOptions dopts;
  dopts.tuples_per_relation = 30;
  dopts.domain_size = 8;
  // One database covering all queries' relations: union per-query draws.
  Database db;
  for (const ConjunctiveQuery& q : queries) {
    const Database part = RandomDatabaseForQuery(q, rng, dopts);
    for (const Fact& fact : part.AllFacts()) {
      // Queries may reuse a relation name at a different arity; such
      // additions fail and are deliberately skipped.
      auto added = db.AddFact(fact.relation, fact.tuple);
      (void)added;
    }
  }

  EvalService service(EvalService::Options{.num_workers = 4});
  const auto batch = CountBatch(service, query_ptrs, db);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    EXPECT_EQ(*batch[i], BagSetCount(queries[i], db))
        << "query=" << queries[i].ToString();
  }
}

}  // namespace
}  // namespace hierarq
