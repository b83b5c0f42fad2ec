// Experiments E6 + E7 — Theorem 4.4 and the dichotomy.
//
// E6: the reduction BCBS -> Bag-Set Maximization Decision is correct and
// the exhaustive decision procedure for non-hierarchical queries scales
// exponentially (NP-hardness side, W[1]-hardness in k).
// E7: the crossover — on matched instance sizes, the hierarchical query is
// solved by the unified polynomial algorithm while the non-hierarchical
// one (which Algorithm 1 provably rejects) needs the exponential solver.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hierarq/core/bagset.h"
#include "hierarq/reductions/bagset_reduction.h"
#include "hierarq/reductions/bcbs.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

/// Perf-trajectory rows (BENCH_dichotomy.json): the polynomial side of the
/// dichotomy — Bag-Set Maximization on the hierarchical Q_h — per scale;
/// the bag-max monoid's vector values stress annotation payload handling,
/// unlike the scalar monoids of the other emitters.
void EmitThroughputJson() {
  bench::JsonReport report("dichotomy", "BENCH_dichotomy.json");
  const ConjunctiveQuery q = MakeQh();
  constexpr size_t kBudget = 8;

  std::printf("  hierarchical BagSetMax throughput:\n");
  for (size_t tuples : {1000, 4000, 16000}) {
    Rng rng(75);
    DataGenOptions opts;
    opts.tuples_per_relation = tuples;
    opts.domain_size = std::max<size_t>(4, tuples / 4);
    const RepairInstance inst = RandomRepairInstance(q, rng, opts, 0.6);
    const double num_facts =
        static_cast<double>(inst.d.NumFacts() + inst.repair.NumFacts());

    const double solves_per_sec = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(
          MaximizeBagSet(q, inst.d, inst.repair, kBudget));
    });
    std::printf("    |D|+|Dr| = %-8.0f %9.0f solves/sec\n", num_facts,
                solves_per_sec);
    report.AddRow(bench::JsonReport::LayoutRow(
                      "qh_budget8/" +
                      std::to_string(static_cast<size_t>(num_facts))),
                  {{"num_facts", num_facts},
                   {"solves_per_sec", solves_per_sec},
                   {"ops_per_sec", solves_per_sec * num_facts}});
  }
  report.WriteToFile();
}

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("E6/E7: Theorem 4.4 — NP-hardness and the dichotomy",
              "BagSetMax: poly for hierarchical, NP-complete otherwise");

  // Reduction round-trip on a batch of random graphs.
  Rng rng(71);
  size_t agreements = 0;
  size_t trials = 0;
  for (int round = 0; round < 10; ++round) {
    const size_t n = 4 + static_cast<size_t>(rng.UniformInt(0, 1));
    const size_t k = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
    const Graph g = RandomGraph(rng, n, 0.5);
    auto inst = ReduceBcbsToBagSetMax(MakeQnh(), g, k);
    if (!inst.ok()) {
      continue;
    }
    ++trials;
    agreements += DecideBagSetMaxBruteForce(MakeQnh(), *inst) ==
                  HasBalancedBiclique(g, k);
  }
  PrintRow("reduction round-trips (BCBS <-> BagSetMax)",
           "all agree",
           std::to_string(agreements) + "/" + std::to_string(trials) +
               " agree");

  // Algorithm 1 must reject the non-hierarchical query.
  auto rejected = MaximizeBagSet(MakeQnh(), Database{}, Database{}, 1);
  PrintRow("Algorithm 1 on Q_nh", "not-hierarchical error",
           rejected.ok() ? "UNEXPECTED SUCCESS"
                         : std::string(StatusCodeName(
                               rejected.status().code())));
  PrintNote("Timing: hierarchical solve grows polynomially; the");
  PrintNote("brute-force decision for Q_nh doubles per repair candidate.");
  EmitThroughputJson();
}

// Polynomial side: hierarchical query, unified algorithm.
void BM_Dichotomy_HierarchicalPoly(benchmark::State& state) {
  const ConjunctiveQuery q = MakeQh();  // E(X,Y), F(Y,Z) — hierarchical.
  Rng rng(72);
  DataGenOptions opts;
  opts.tuples_per_relation = static_cast<size_t>(state.range(0));
  opts.domain_size = std::max<size_t>(4, opts.tuples_per_relation / 4);
  const RepairInstance inst = RandomRepairInstance(q, rng, opts, 0.6);
  for (auto _ : state) {
    auto result = MaximizeBagSet(q, inst.d, inst.repair, 8);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(
      static_cast<int64_t>(inst.d.NumFacts() + inst.repair.NumFacts()));
}
BENCHMARK(BM_Dichotomy_HierarchicalPoly)
    ->RangeMultiplier(2)
    ->Range(8, 4096)
    ->Complexity(benchmark::oN);

// Exponential side: non-hierarchical query, exhaustive decision on the
// Theorem 4.4 instance family (reduced from G(n, 0.5), k = 2).
void BM_Dichotomy_NonHierarchicalExhaustive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(73);
  const Graph g = RandomGraph(rng, n, 0.5);
  auto inst = ReduceBcbsToBagSetMax(MakeQnh(), g, 2);
  if (!inst.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideBagSetMaxBruteForce(MakeQnh(), *inst));
  }
  state.counters["repair_facts"] =
      static_cast<double>(inst->repair.NumFacts());
}
BENCHMARK(BM_Dichotomy_NonHierarchicalExhaustive)->DenseRange(3, 9, 1);

// The BCBS solver itself (the problem the hardness comes from): C(n,k)
// growth in k — the W[1]-hardness axis.
void BM_Dichotomy_BcbsParameterK(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(74);
  const Graph g = PlantedBicliqueGraph(rng, 24, k, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasBalancedBiclique(g, k));
  }
}
BENCHMARK(BM_Dichotomy_BcbsParameterK)->DenseRange(1, 6, 1);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
