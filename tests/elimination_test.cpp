// Tests for the elimination procedure (paper Proposition 5.1).

#include <gtest/gtest.h>

#include "hierarq/query/elimination.h"
#include "hierarq/query/hierarchical.h"
#include "hierarq/query/parser.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

/// Replays a plan's bookkeeping and checks internal consistency: every
/// step consumes live atoms and produces the recorded schema; the run ends
/// on one nullary atom.
void ValidatePlan(const EliminationPlan& plan, const ConjunctiveQuery& q) {
  std::vector<bool> live(plan.num_atoms(), false);
  for (size_t i = 0; i < plan.num_base_atoms(); ++i) {
    live[i] = true;
    ASSERT_EQ(plan.vars_of(i), q.atoms()[i].vars());
  }
  for (const EliminationStep& step : plan.steps()) {
    if (step.rule == EliminationRule::kProjectVariable) {
      ASSERT_TRUE(live[step.source_atom]);
      ASSERT_TRUE(plan.vars_of(step.source_atom).Contains(step.variable));
      VarSet expected = plan.vars_of(step.source_atom);
      expected.Erase(step.variable);
      ASSERT_EQ(plan.vars_of(step.result_atom), expected);
      live[step.source_atom] = false;
    } else {
      ASSERT_TRUE(live[step.left_atom]);
      ASSERT_TRUE(live[step.right_atom]);
      ASSERT_EQ(plan.vars_of(step.left_atom), plan.vars_of(step.right_atom));
      ASSERT_EQ(plan.vars_of(step.result_atom), plan.vars_of(step.left_atom));
      live[step.left_atom] = false;
      live[step.right_atom] = false;
    }
    live[step.result_atom] = true;
  }
  // Fusion links: a Rule 2 result read by a Rule 1 step is read by the
  // very next step, and exactly those pairs link to each other.
  const std::vector<EliminationStep>& steps = plan.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const EliminationStep& step = steps[i];
    bool feeds_projection = false;
    if (step.rule == EliminationRule::kMergeAtoms) {
      for (size_t j = i + 1; j < steps.size(); ++j) {
        if (steps[j].rule == EliminationRule::kProjectVariable &&
            steps[j].source_atom == step.result_atom) {
          ASSERT_EQ(j, i + 1) << "Rule 1 consumer is not the next step";
          feeds_projection = true;
        }
      }
    }
    if (feeds_projection) {
      ASSERT_EQ(step.fused_with, i + 1);
      ASSERT_EQ(steps[i + 1].fused_with, i);
    } else if (step.rule == EliminationRule::kMergeAtoms) {
      ASSERT_EQ(step.fused_with, EliminationStep::kNotFused);
    } else if (step.fused_with != EliminationStep::kNotFused) {
      ASSERT_EQ(step.fused_with + 1, i);
      ASSERT_EQ(steps[i - 1].rule, EliminationRule::kMergeAtoms);
    }
  }

  size_t live_count = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i]) {
      ++live_count;
      EXPECT_EQ(i, plan.final_atom());
    }
  }
  EXPECT_EQ(live_count, 1u);
  EXPECT_TRUE(plan.vars_of(plan.final_atom()).empty());
}

TEST(Elimination, SingleNullaryAtomNeedsNoSteps) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R()");
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->steps().empty());
  EXPECT_EQ(plan->final_atom(), 0u);
}

TEST(Elimination, SingleUnaryAtom) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps().size(), 1u);
  EXPECT_EQ(plan->steps()[0].rule, EliminationRule::kProjectVariable);
  ValidatePlan(*plan, q);
}

TEST(Elimination, TwoNullaryAtomsMergeOnce) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(), S()");
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps().size(), 1u);
  EXPECT_EQ(plan->steps()[0].rule, EliminationRule::kMergeAtoms);
  ValidatePlan(*plan, q);
}

TEST(Elimination, DuplicateSchemasMerge) {
  const ConjunctiveQuery q = ParseQueryOrDie("R(X,Y), S(Y,X), T(X)");
  ASSERT_TRUE(IsHierarchical(q));
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  ValidatePlan(*plan, q);
}

TEST(Elimination, FusionLinksEachRule2ToTheRule1ThatConsumesIt) {
  // Paper query: S ⊗ T' feeds the projection of C, R' ⊗ S'' the
  // projection of A; the two leading projections read base atoms.
  const ConjunctiveQuery paper = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  auto plan = EliminationPlan::Build(paper);
  ASSERT_TRUE(plan.ok());
  ValidatePlan(*plan, paper);
  std::vector<size_t> links;
  for (const EliminationStep& step : plan->steps()) {
    links.push_back(step.fused_with);
  }
  constexpr size_t kNone = EliminationStep::kNotFused;
  EXPECT_EQ(links, (std::vector<size_t>{kNone, kNone, 3, 2, 5, 4}));

  // A Rule 2 → Rule 2 chain: only the second merge feeds a projection.
  const ConjunctiveQuery chain = ParseQueryOrDie("R(A), S(A), T(A)");
  plan = EliminationPlan::Build(chain);
  ASSERT_TRUE(plan.ok());
  ValidatePlan(*plan, chain);
  links.clear();
  for (const EliminationStep& step : plan->steps()) {
    links.push_back(step.fused_with);
  }
  EXPECT_EQ(links, (std::vector<size_t>{kNone, 2, 1}));
}

TEST(Elimination, StuckReportsViolation) {
  auto plan = EliminationPlan::Build(MakeQnh());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotHierarchical);
  // The message should carry a concrete witness.
  EXPECT_NE(plan.status().message().find("violate"), std::string::npos);
}

TEST(Elimination, StepCountIsLinearInQuerySize) {
  // Each Rule 1 removes one variable occurrence set; each Rule 2 removes
  // one atom: steps = #vars + #atoms - 1 for connected... in general
  // exactly (#variable-eliminations) + (#atoms - 1).
  for (size_t depth = 1; depth <= 6; ++depth) {
    const ConjunctiveQuery q = MakeNestedChain(depth);
    auto plan = EliminationPlan::Build(q);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->steps().size(), q.AllVars().size() + q.num_atoms() - 1);
    ValidatePlan(*plan, q);
  }
}

TEST(Elimination, PlanToStringMentionsRules) {
  const ConjunctiveQuery q = MakePaperQuery();
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  const std::string trace = plan->ToString(q.variables());
  EXPECT_NE(trace.find("Rule 1"), std::string::npos);
  EXPECT_NE(trace.find("Rule 2"), std::string::npos);
  EXPECT_NE(trace.find("Final atom"), std::string::npos);
}

TEST(Elimination, DerivedNamesCarryPrimes) {
  const ConjunctiveQuery q = ParseQueryOrDie("R(A)");
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->name_of(plan->final_atom()), "R'");
}

class EliminationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EliminationPropertyTest, PlanExistsIffHierarchical) {
  // Proposition 5.1 both directions, on random queries of both kinds.
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const ConjunctiveQuery q =
        MakeRandomQuery(rng, 1 + static_cast<size_t>(rng.UniformInt(0, 4)),
                        1 + static_cast<size_t>(rng.UniformInt(0, 4)),
                        1 + static_cast<size_t>(rng.UniformInt(0, 2)));
    const bool hierarchical = IsHierarchical(q);
    auto plan = EliminationPlan::Build(q);
    ASSERT_EQ(plan.ok(), hierarchical) << q.ToString();
    if (plan.ok()) {
      ValidatePlan(*plan, q);
    } else {
      EXPECT_EQ(plan.status().code(), StatusCode::kNotHierarchical);
    }
  }
}

TEST_P(EliminationPropertyTest, RandomHierarchicalAlwaysPlans) {
  Rng rng(GetParam() * 7919 + 13);
  for (int round = 0; round < 40; ++round) {
    RandomHierarchicalOptions opts;
    opts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
    opts.num_roots = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, opts);
    auto plan = EliminationPlan::Build(q);
    ASSERT_TRUE(plan.ok()) << q.ToString();
    ValidatePlan(*plan, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hierarq
