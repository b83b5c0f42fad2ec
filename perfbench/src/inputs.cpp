#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/expectation.h"
#include "hierarq/query/parser.h"
#include "measure.h"

namespace perfbench {

using hierarq::Fact;
using hierarq::net::SolverKind;

namespace {

constexpr struct {
  const char* name;
  size_t arity;
} kRelations[] = {{"R", 2}, {"S", 2}, {"T", 3}};

std::string RenderWeight(int k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", k / 10000.0);
  return buf;
}

}  // namespace

std::string RenderFactText(const Fact& fact) {
  std::string out = fact.relation + "(";
  for (size_t i = 0; i < fact.tuple.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(fact.tuple[i]);
  }
  out += ')';
  return out;
}

std::string GenerateTidText(const DatasetShape& shape, uint64_t seed) {
  hierarq::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::string text;
  text.reserve(shape.per_relation * 3 * 24);
  for (const auto& relation : kRelations) {
    std::set<Fact> seen;
    while (seen.size() < shape.per_relation) {
      Fact fact{relation.name, hierarq::Tuple(relation.arity)};
      for (size_t i = 0; i < relation.arity; ++i) {
        fact.tuple[i] = rng.UniformInt(0, shape.domain - 1);
      }
      if (!seen.insert(fact).second) {
        continue;
      }
      text += RenderFactText(fact);
      text += " @ ";
      text += RenderWeight(static_cast<int>(
          rng.UniformInt(shape.weight_lo, shape.weight_hi)));
      text += '\n';
    }
  }
  return text;
}

ToggleStream::ToggleStream(const hierarq::TidDatabase& db,
                           const DatasetShape& shape, uint64_t seed)
    : rng_(seed * 0xbf58476d1ce4e5b9ULL + 7),
      weight_lo_(shape.weight_lo),
      weight_hi_(shape.weight_hi) {
  for (auto& [fact, p] : db.AllFacts()) {
    present_.push_back(std::move(fact));
  }
  // AllFacts is ordered by (relation, tuple), so the stream depends only
  // on the database content and the seed.
}

std::string ToggleStream::Next() {
  const auto pick = [this] {
    return static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(present_.size()) - 1));
  };
  const auto weight = [this] {
    return RenderWeight(
        static_cast<int>(rng_.UniformInt(weight_lo_, weight_hi_)));
  };
  const size_t phase = removed_.size() < kLag ? 0 : next_++ % 3;
  if (phase == 0) {
    const size_t i = pick();
    std::swap(present_[i], present_.back());
    removed_.push_back(std::move(present_.back()));
    present_.pop_back();
    return "-" + RenderFactText(removed_.back());
  }
  if (phase == 1) {
    Fact fact = std::move(removed_.front());
    removed_.pop_front();
    std::string line = "+" + RenderFactText(fact) + "@" + weight();
    present_.push_back(std::move(fact));
    return line;
  }
  return "!" + RenderFactText(present_[pick()]) + "@" + weight();
}

hierarq::Result<Answer> ReferenceAnswer(hierarq::Evaluator& evaluator,
                                        const Request& request,
                                        const hierarq::VersionedDatabase& db) {
  HIERARQ_ASSIGN_OR_RETURN(const hierarq::ConjunctiveQuery query,
                           hierarq::ParseQuery(request.query));
  Answer answer;
  answer.solver = request.solver;
  const auto weight = [&db](const Fact& fact) {
    return std::clamp(db.WeightOf(fact), 0.0, 1.0);
  };
  switch (request.solver) {
    case SolverKind::kCount: {
      HIERARQ_ASSIGN_OR_RETURN(
          answer.count,
          evaluator.Evaluate(query, hierarq::CountMonoid{}, db.facts(),
                             [](const Fact&) -> uint64_t { return 1; }));
      return answer;
    }
    case SolverKind::kPqe: {
      HIERARQ_ASSIGN_OR_RETURN(
          answer.number, evaluator.Evaluate(query, hierarq::ProbMonoid{},
                                            db.facts(), weight));
      return answer;
    }
    case SolverKind::kExpect: {
      HIERARQ_ASSIGN_OR_RETURN(
          answer.number,
          evaluator.Evaluate(query, hierarq::ExpectationMonoid{}, db.facts(),
                             weight));
      return answer;
    }
    default:
      return hierarq::Status::InvalidArgument("unsupported solver");
  }
}

bool Matches(const hierarq::net::QueryResult& got, const Answer& want) {
  if (got.solver != want.solver) {
    return false;
  }
  if (want.solver == SolverKind::kCount) {
    return got.count == want.count;
  }
  return NearlyEqual(got.number, want.number);
}

}  // namespace perfbench
