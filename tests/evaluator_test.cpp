// Tests for the Evaluator (core/evaluator.h): plan caching across repeated
// evaluations, per-monoid scratch isolation, correctness against the
// uncached path, and the amortized solver entry points.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/core/pqe.h"
#include "hierarq/core/resilience.h"
#include "hierarq/core/shapley.h"
#include "hierarq/data/tid_database.h"
#include "hierarq/query/parser.h"
#include "hierarq/util/random.h"
#include "hierarq/workload/data_gen.h"

namespace hierarq {
namespace {

std::function<uint64_t(const Fact&)> OneAnnotator() {
  return [](const Fact&) -> uint64_t { return 1; };
}

TEST(Evaluator, SecondEvaluationSkipsPlanBuild) {
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("S", MakeTuple({1}));
  const CountMonoid monoid;

  auto first = evaluator.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  EXPECT_EQ(evaluator.stats().plans_built, 1u);
  EXPECT_EQ(evaluator.stats().plan_cache_hits, 0u);

  for (int i = 0; i < 5; ++i) {
    auto again =
        evaluator.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, 1u);
  }
  // EliminationPlan::Build ran exactly once; all later runs hit the cache.
  EXPECT_EQ(evaluator.stats().plans_built, 1u);
  EXPECT_EQ(evaluator.stats().plan_cache_hits, 5u);
  EXPECT_EQ(evaluator.stats().evaluations, 6u);
  EXPECT_EQ(evaluator.num_cached_plans(), 1u);
}

TEST(Evaluator, DistinctQueriesGetDistinctPlans) {
  Evaluator evaluator;
  const ConjunctiveQuery q1 = ParseQueryOrDie("R(A)");
  const ConjunctiveQuery q2 = ParseQueryOrDie("S(A,B)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1}));
  db.AddFactOrDie("S", MakeTuple({1, 2}));
  const CountMonoid monoid;

  ASSERT_TRUE(
      evaluator.Evaluate<CountMonoid>(q1, monoid, db, OneAnnotator()).ok());
  ASSERT_TRUE(
      evaluator.Evaluate<CountMonoid>(q2, monoid, db, OneAnnotator()).ok());
  EXPECT_EQ(evaluator.stats().plans_built, 2u);
  EXPECT_EQ(evaluator.num_cached_plans(), 2u);
}

TEST(Evaluator, GetPlanReturnsStablePointer) {
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A)");
  auto plan = evaluator.GetPlan(q);
  ASSERT_TRUE(plan.ok());
  const EliminationPlan* first = *plan;
  // Populate the cache with more plans to force rehashes.
  for (int i = 0; i < 50; ++i) {
    const std::string rel = "T" + std::to_string(i);
    ASSERT_TRUE(
        evaluator.GetPlan(ParseQueryOrDie(rel + "(A)")).ok());
  }
  auto again = evaluator.GetPlan(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, first);
}

TEST(Evaluator, NonHierarchicalQueryFailsAndIsNotCached) {
  Evaluator evaluator;
  // The canonical non-hierarchical path query R(A), S(A,B), T(B).
  const ConjunctiveQuery q = ParseQueryOrDie("R(A), S(A,B), T(B)");
  Database db;
  const CountMonoid monoid;
  auto result = evaluator.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotHierarchical);
  EXPECT_EQ(evaluator.num_cached_plans(), 0u);
  EXPECT_EQ(evaluator.stats().evaluations, 0u);
}

TEST(Evaluator, RepeatedEvaluationMatchesUncachedPath) {
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  const CountMonoid monoid;
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    // A fresh random database per round: buffers are reused, results must
    // still match the one-shot evaluation exactly.
    Database db;
    for (int i = 0; i < 30; ++i) {
      db.AddFactOrDie("R", MakeTuple({rng.UniformInt(0, 5),
                                      rng.UniformInt(0, 5)}));
      db.AddFactOrDie("S", MakeTuple({rng.UniformInt(0, 5),
                                      rng.UniformInt(0, 5)}));
      db.AddFactOrDie("T", MakeTuple({rng.UniformInt(0, 5),
                                      rng.UniformInt(0, 5),
                                      rng.UniformInt(0, 5)}));
    }
    auto cached = evaluator.Evaluate<CountMonoid>(q, monoid, db,
                                                  OneAnnotator());
    auto uncached = RunAlgorithm1OnQuery<CountMonoid>(q, monoid, db,
                                                      OneAnnotator());
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(uncached.ok());
    EXPECT_EQ(*cached, *uncached) << "round " << round;
  }
  EXPECT_EQ(evaluator.stats().plans_built, 1u);
  EXPECT_EQ(evaluator.stats().plan_cache_hits, 9u);
}

TEST(Evaluator, ScratchIsolatedAcrossMonoidDomains) {
  // Evaluating the same query in different value domains must not corrupt
  // either domain's scratch buffers.
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("R", MakeTuple({1, 3}));
  db.AddFactOrDie("S", MakeTuple({1}));

  const CountMonoid count;
  const BoolMonoid boolean;
  for (int i = 0; i < 3; ++i) {
    auto c = evaluator.Evaluate<CountMonoid>(q, count, db, OneAnnotator());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*c, 2u);
    auto b = evaluator.Evaluate<BoolMonoid>(
        q, boolean, db, [](const Fact&) { return true; });
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(*b);
  }
  EXPECT_EQ(evaluator.stats().plans_built, 1u);
}

TEST(Evaluator, ClearCacheForcesRebuild) {
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A)");
  ASSERT_TRUE(evaluator.GetPlan(q).ok());
  EXPECT_EQ(evaluator.num_cached_plans(), 1u);
  evaluator.ClearCache();
  EXPECT_EQ(evaluator.num_cached_plans(), 0u);
  ASSERT_TRUE(evaluator.GetPlan(q).ok());
  EXPECT_EQ(evaluator.stats().plans_built, 2u);
}

TEST(Evaluator, ScratchShrinksAndGrowsAcrossQueries) {
  // Alternating queries with different atom counts must reuse the scratch
  // prefix (shrink-or-grow) and still produce exact results every round.
  Evaluator evaluator;
  const ConjunctiveQuery big = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  const ConjunctiveQuery small = ParseQueryOrDie("R(A,B)");
  const ConjunctiveQuery chain =
      ParseQueryOrDie("C1(X1), C2(X1,X2), C3(X1,X2,X3)");
  const CountMonoid monoid;
  Rng rng(13);
  for (int round = 0; round < 6; ++round) {
    Database db;
    for (int i = 0; i < 20; ++i) {
      db.AddFactOrDie("R", MakeTuple({rng.UniformInt(0, 4),
                                      rng.UniformInt(0, 4)}));
      db.AddFactOrDie("S", MakeTuple({rng.UniformInt(0, 4),
                                      rng.UniformInt(0, 4)}));
      db.AddFactOrDie("T", MakeTuple({rng.UniformInt(0, 4),
                                      rng.UniformInt(0, 4),
                                      rng.UniformInt(0, 4)}));
      db.AddFactOrDie("C1", MakeTuple({rng.UniformInt(0, 4)}));
      db.AddFactOrDie("C2", MakeTuple({rng.UniformInt(0, 4),
                                       rng.UniformInt(0, 4)}));
      db.AddFactOrDie("C3", MakeTuple({rng.UniformInt(0, 4),
                                       rng.UniformInt(0, 4),
                                       rng.UniformInt(0, 4)}));
    }
    // big (more plan atoms) -> small (fewer) -> chain (more again).
    for (const ConjunctiveQuery* q : {&big, &small, &chain}) {
      auto cached = evaluator.Evaluate<CountMonoid>(*q, monoid, db,
                                                    OneAnnotator());
      auto uncached = RunAlgorithm1OnQuery<CountMonoid>(*q, monoid, db,
                                                        OneAnnotator());
      ASSERT_TRUE(cached.ok());
      ASSERT_TRUE(uncached.ok());
      EXPECT_EQ(*cached, *uncached)
          << "round " << round << " query " << q->ToString();
    }
  }
  EXPECT_EQ(evaluator.stats().plans_built, 3u);
}

TEST(AtomAnnotationSignature, CapturesStructureNotVariableNames) {
  auto atom_of = [](const char* text, size_t index = 0) {
    return ParseQueryOrDie(text).atoms()[index];
  };
  // Variable renamings share a signature.
  EXPECT_EQ(AtomAnnotationSignature(atom_of("R(A,B)")),
            AtomAnnotationSignature(atom_of("R(X,Y)")));
  // So do atoms embedded in different queries with different intern order:
  // in "S(C,A)" C interns first, but ranks follow ascending VarId per atom.
  EXPECT_EQ(AtomAnnotationSignature(atom_of("R(A,B), S(A,C)", 1)),
            AtomAnnotationSignature(atom_of("S(C,A)")));
  // Different relations differ.
  EXPECT_NE(AtomAnnotationSignature(atom_of("R(A,B)")),
            AtomAnnotationSignature(atom_of("S(A,B)")));
  // Repeated-variable structure matters: R(X,X,Y) vs R(X,Y,Y).
  EXPECT_EQ(AtomAnnotationSignature(atom_of("R(A,A,B)")),
            AtomAnnotationSignature(atom_of("R(X,X,Y)")));
  EXPECT_NE(AtomAnnotationSignature(atom_of("R(A,A,B)")),
            AtomAnnotationSignature(atom_of("R(A,B,B)")));
  // Constants are part of the signature.
  EXPECT_EQ(AtomAnnotationSignature(atom_of("R(A,7)")),
            AtomAnnotationSignature(atom_of("R(X,7)")));
  EXPECT_NE(AtomAnnotationSignature(atom_of("R(A,7)")),
            AtomAnnotationSignature(atom_of("R(A,8)")));
  EXPECT_NE(AtomAnnotationSignature(atom_of("R(A,7)")),
            AtomAnnotationSignature(atom_of("R(A,B)")));
}

TEST(AnnotateForQuerySet, SharesScansAcrossEqualSignatures) {
  const ConjunctiveQuery q1 = ParseQueryOrDie("R(A,B), S(A,C)");
  const ConjunctiveQuery q2 = ParseQueryOrDie("R(X,Y)");
  const ConjunctiveQuery q3 = ParseQueryOrDie("S(A,B)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("R", MakeTuple({2, 3}));
  db.AddFactOrDie("S", MakeTuple({1, 7}));

  const auto annotator = OneAnnotator();
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  AnnotationPool<uint64_t> pool =
      AnnotateForQuerySet<uint64_t>({&q1, &q2, &q3}, db, annotator, plus);

  // 4 atoms, 2 distinct signatures: R(v0,v1) and S(v0,v1).
  EXPECT_EQ(pool.scans, 2u);
  EXPECT_EQ(pool.reused, 2u);
  EXPECT_EQ(pool.by_signature.size(), 2u);

  const AnnotatedRelation<uint64_t>* r =
      pool.Find(AtomAnnotationSignature(q2.atoms()[0]));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 2u);
  const AnnotatedRelation<uint64_t>* s =
      pool.Find(AtomAnnotationSignature(q3.atoms()[0]));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->size(), 1u);
  EXPECT_NE(s->Find(MakeTuple({1, 7})), nullptr);
}

TEST(Evaluator, ReplayPlanMatchesEvaluate) {
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  Rng rng(17);
  DataGenOptions opts;
  opts.tuples_per_relation = 80;
  opts.domain_size = 12;
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  const CountMonoid monoid;

  Evaluator evaluator;
  auto direct = evaluator.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
  ASSERT_TRUE(direct.ok());

  auto plan = evaluator.GetPlan(q);
  ASSERT_TRUE(plan.ok());
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const AnnotationPool<uint64_t> pool =
      AnnotateForQuerySet<uint64_t>({&q}, db, OneAnnotator(), plus);
  // Replaying twice from the same pool must be stable: the pool is only
  // read, the scratch is reset per replay.
  EXPECT_EQ(evaluator.ReplayPlan(**plan, monoid, q, pool), *direct);
  EXPECT_EQ(evaluator.ReplayPlan(**plan, monoid, q, pool), *direct);
}

TEST(Evaluator, WarmReplaysReadThePoolInPlace) {
  // A replay reads its base relations straight out of the pool: the pool
  // stays untouched and the evaluator's scratch holds only the plan's
  // intermediates — no base-sized copy — so its bytes stay below the
  // pool's.
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  Rng rng(30000);
  DataGenOptions opts;
  opts.tuples_per_relation = 10000;  // ~30k facts over three relations.
  opts.domain_size = 300;
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  const CountMonoid monoid;
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const AnnotationPool<uint64_t> pool =
      AnnotateForQuerySet<uint64_t>({&q}, db, OneAnnotator(), plus);

  using Rows = std::vector<std::pair<std::vector<Value>, uint64_t>>;
  const auto snapshot = [&pool] {
    std::map<std::string, Rows> out;
    for (const auto& [signature, relation] : pool.by_signature) {
      Rows& rows = out[signature];
      relation.ForEach([&rows](const Tuple& key, const uint64_t& value) {
        rows.emplace_back(std::vector<Value>(key.begin(), key.end()), value);
      });
    }
    return out;
  };
  size_t pool_bytes = 0;
  for (const auto& [signature, relation] : pool.by_signature) {
    pool_bytes += relation.bytes();
  }
  const auto before = snapshot();
  ASSERT_GT(db.NumFacts(), 29000u);

  Evaluator reference;
  auto expected = reference.Evaluate<CountMonoid>(q, monoid, db,
                                                  OneAnnotator());
  ASSERT_TRUE(expected.ok());
  // The gauge sees base tables where they exist: Evaluate annotates its
  // own, as large as the pool's.
  EXPECT_GE(reference.scratch_bytes(), pool_bytes);

  Evaluator evaluator;
  auto plan = evaluator.GetPlan(q);
  ASSERT_TRUE(plan.ok());
  const auto bases = ResolveBases(q, pool);
  for (int replay = 0; replay < 3; ++replay) {
    EXPECT_EQ(evaluator.ReplayPlan(**plan, monoid, q, bases), *expected);
  }
  EXPECT_EQ(snapshot(), before) << "a replay wrote a pool entry";
  EXPECT_GT(evaluator.scratch_bytes(), 0u);
  EXPECT_LT(evaluator.scratch_bytes(), pool_bytes)
      << "replay scratch holds a base-sized table";
}

TEST(Evaluator, SharedAcrossSolverEntryPoints) {
  Evaluator evaluator;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A)");

  TidDatabase tid;
  tid.AddFactOrDie("R", MakeTuple({1, 2}), 0.5);
  tid.AddFactOrDie("S", MakeTuple({1}), 0.5);
  auto pqe = EvaluateProbability(evaluator, q, tid);
  ASSERT_TRUE(pqe.ok());
  EXPECT_NEAR(*pqe, 0.25, 1e-12);

  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 2}));
  endo.AddFactOrDie("S", MakeTuple({1}));
  auto res = ComputeResilience(evaluator, q, Database(), endo);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, 1u);

  auto shapley = AllShapleyValues(evaluator, q, Database(), endo);
  ASSERT_TRUE(shapley.ok());
  EXPECT_EQ(shapley->size(), 2u);

  // One plan for the one query text, shared by all three solvers.
  EXPECT_EQ(evaluator.num_cached_plans(), 1u);
  EXPECT_EQ(evaluator.stats().plans_built, 1u);
  EXPECT_GT(evaluator.stats().plan_cache_hits, 0u);
}

}  // namespace
}  // namespace hierarq
