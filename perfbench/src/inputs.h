#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded inputs: TID databases over the paper query's relations R, S, T,
// their fact files, the queries of each traffic mix, toggle delta
// streams, and reference answers from an in-process Evaluator.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "hierarq/core/evaluator.h"
#include "hierarq/data/tid_database.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/wire.h"
#include "hierarq/util/random.h"

namespace perfbench {

/// Figure 1's query: hierarchical, three atoms, four variables.
inline constexpr const char* kPaperQuery = "Q() :- R(A,B), S(A,C), T(A,C,D)";
inline constexpr const char* kRsQuery = "Q() :- R(A,B), S(A,C)";
inline constexpr const char* kStQuery = "Q() :- S(A,C), T(A,C,D)";

struct Request {
  hierarq::net::SolverKind solver = hierarq::net::SolverKind::kCount;
  std::string query;
};

/// Shape of a generated database: `per_relation` distinct facts in each
/// of R/2, S/2, T/3, values in [0, domain), probabilities drawn from
/// {k / 10000 : k in [weight_lo, weight_hi]} so every weight has an exact
/// four-digit rendering that parses back to the same double.
struct DatasetShape {
  size_t per_relation = 0;
  int64_t domain = 0;
  int weight_lo = 0;
  int weight_hi = 0;
};

/// The fact-file text of a generated TID database.
std::string GenerateTidText(const DatasetShape& shape, uint64_t seed);

/// A stream of single-op update batches over a database's facts: delete
/// a present fact, re-insert it kLag deletes later with a fresh weight,
/// and re-weight a present fact, in that cycle. A third of the ops are
/// deletes, so the median update is not pinned to the boundary between
/// the slow (delete) and fast (insert, re-weight) latency modes. The same
/// seed and database give the same lines.
class ToggleStream {
 public:
  static constexpr size_t kLag = 8;

  ToggleStream(const hierarq::TidDatabase& db, const DatasetShape& shape,
               uint64_t seed);

  /// The next delta line: "-R(3,7)", "+R(3,7)@0.0042" or "!S(1,2)@0.0061".
  std::string Next();

 private:
  hierarq::Rng rng_;
  int weight_lo_;
  int weight_hi_;
  std::vector<hierarq::Fact> present_;
  std::deque<hierarq::Fact> removed_;
  size_t next_ = 0;  ///< Position in the delete, insert, re-weight cycle.
};

/// A fact rendered in the delta/loader grammar without spaces: "R(3,7)".
std::string RenderFactText(const hierarq::Fact& fact);

/// One reference answer: exact for count, floating for pqe/expect.
struct Answer {
  hierarq::net::SolverKind solver = hierarq::net::SolverKind::kCount;
  uint64_t count = 0;
  double number = 0.0;
};

/// Evaluates `request` over `db` the way the server does (count: every
/// fact weighs 1; pqe/expect: weights clamped to [0, 1]).
hierarq::Result<Answer> ReferenceAnswer(hierarq::Evaluator& evaluator,
                                        const Request& request,
                                        const hierarq::VersionedDatabase& db);

/// Whether a served result matches the reference: count exactly,
/// pqe/expect within kRelTol.
bool Matches(const hierarq::net::QueryResult& got, const Answer& want);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
