// Experiment E3 — Theorem 5.8: Probabilistic Query Evaluation over
// tuple-independent databases runs in O(|D|) for hierarchical queries.
//
// Sweeps |D| across three hierarchical query shapes and lets
// google-benchmark fit the complexity (expect linear, i.e. o(N) with small
// constants; hashing makes it linear amortized). A companion sweep shows
// the possible-worlds brute force exploding exponentially on the *same*
// problem, which is the gap the Dalvi–Suciu specialization closes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hierarq/core/pqe.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

TidDatabase MakeTid(const ConjunctiveQuery& q, size_t tuples_per_relation,
                    uint64_t seed) {
  Rng rng(seed);
  DataGenOptions opts;
  opts.tuples_per_relation = tuples_per_relation;
  opts.domain_size = std::max<size_t>(8, tuples_per_relation / 4);
  return RandomTidForQuery(q, rng, opts);
}

void EmitThroughputJson();

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("E3: Theorem 5.8 — PQE in O(|D|)",
              "hierarchical PQE = Dalvi-Suciu, linear data complexity");
  const ConjunctiveQuery q = MakePaperQuery();
  // Correctness spot check against possible worlds.
  const TidDatabase small = MakeTid(q, 4, 7);
  auto fast = EvaluateProbability(q, small);
  const double slow = BruteForcePqe(q, small);
  PrintRow("Pr[Q] algorithm vs possible worlds",
           "equal", fast.ok() && std::abs(*fast - slow) < 1e-9
                        ? "equal (|diff|<1e-9)"
                        : "MISMATCH");
  PrintNote("timing sweeps below; expect ~linear ns/op growth for the");
  PrintNote("unified algorithm and ~2^u growth for the brute force");
  PrintNote("(u = number of uncertain facts).");
  EmitThroughputJson();
}

/// Steady-state PQE throughput (amortized through an Evaluator) recorded
/// in BENCH_pqe.json so the perf trajectory spans the solver entry points,
/// not just raw Algorithm 1 (BENCH_algorithm1.json).
void EmitThroughputJson() {
  bench::JsonReport report("pqe", "BENCH_pqe.json");
  const ConjunctiveQuery q = MakePaperQuery();
  std::printf("  steady-state PQE throughput:\n");
  Evaluator evaluator;
  for (size_t tuples : {10000, 30000, 100000}) {
    const TidDatabase db = MakeTid(q, tuples, 42);
    const double evals_per_sec = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(EvaluateProbability(evaluator, q, db));
    });
    const double facts_per_sec =
        evals_per_sec * static_cast<double>(db.NumFacts());
    std::printf("    |D| = %-8zu %10.0f evals/sec  %12.3e facts/sec\n",
                db.NumFacts(), evals_per_sec, facts_per_sec);
    report.AddRow("paper_query/" + std::to_string(db.NumFacts()),
                  {{"num_facts", static_cast<double>(db.NumFacts())},
                   {"evals_per_sec", evals_per_sec},
                   {"facts_per_sec", facts_per_sec}});
  }
  report.WriteToFile();
}

void BM_Pqe_PaperQuery(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const size_t tuples = static_cast<size_t>(state.range(0));
  const TidDatabase db = MakeTid(q, tuples, 42);
  for (auto _ : state) {
    auto p = EvaluateProbability(q, db);
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
  state.counters["facts"] = static_cast<double>(db.NumFacts());
}
BENCHMARK(BM_Pqe_PaperQuery)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity(benchmark::oN);

void BM_Pqe_StarQuery(benchmark::State& state) {
  const ConjunctiveQuery q = MakeStarQuery(4);
  const TidDatabase db = MakeTid(q, static_cast<size_t>(state.range(0)), 43);
  for (auto _ : state) {
    auto p = EvaluateProbability(q, db);
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
}
BENCHMARK(BM_Pqe_StarQuery)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity(benchmark::oN);

void BM_Pqe_NestedChain(benchmark::State& state) {
  const ConjunctiveQuery q = MakeNestedChain(5);
  const TidDatabase db = MakeTid(q, static_cast<size_t>(state.range(0)), 44);
  for (auto _ : state) {
    auto p = EvaluateProbability(q, db);
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
}
BENCHMARK(BM_Pqe_NestedChain)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity(benchmark::oN);

// The exponential contrast: brute-force possible worlds on u uncertain
// facts. Runtime doubles per unit of u.
void BM_Pqe_BruteForceWorlds(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const size_t u = static_cast<size_t>(state.range(0));
  Rng rng(45);
  TidDatabase db;
  // u uncertain facts spread over the three relations.
  for (size_t i = 0; i < u; ++i) {
    const double p = 0.5;
    switch (i % 3) {
      case 0:
        db.AddFactOrDie("R", MakeTuple({1, static_cast<Value>(i)}), p);
        break;
      case 1:
        db.AddFactOrDie("S", MakeTuple({1, static_cast<Value>(i)}), p);
        break;
      default:
        db.AddFactOrDie("T", MakeTuple({1, static_cast<Value>(i), 0}), p);
        break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForcePqe(q, db));
  }
  state.SetComplexityN(static_cast<int64_t>(u));
}
BENCHMARK(BM_Pqe_BruteForceWorlds)->DenseRange(4, 18, 2);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
