// Randomized property tests for the relation laws AnnotatedRelation must
// satisfy:
//
//   * the fused Rule 2 → Rule 1 kernel (ColumnarStore::JoinUnionProjectInto)
//     equals JoinUnionInto followed by ProjectDropInto bit for bit, row
//     order included, for every drop position, empty and one-sided inputs,
//     a floating-point ⊕ and a non-annihilating ⊗;
//   * Merge is ⊕-associative and ⊕-commutative per monoid: any insertion
//     order of a multiset of (key, value) updates lands on the relation a
//     std::map model folds;
//   * Reset + reuse never leaks prior entries — a scratch relation cycled
//     through schemas behaves like a fresh one.
//
// All properties quantify over random data from seeded Rngs, so failures
// reproduce from the seed printed by gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/algebra/satcount_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/columnar.h"
#include "hierarq/util/random.h"

namespace hierarq {
namespace {

// A random key over `arity` positions with values in [0, domain).
Tuple RandomKey(Rng& rng, size_t arity, int64_t domain) {
  Tuple key;
  key.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    key.push_back(rng.UniformInt(0, domain - 1));
  }
  return key;
}

// Reference content of a relation, independent of row order.
template <typename K>
std::map<std::vector<Value>, K> Snapshot(const AnnotatedRelation<K>& rel) {
  std::map<std::vector<Value>, K> out;
  rel.ForEach([&](const Tuple& key, const K& value) {
    out.emplace(std::vector<Value>(key.begin(), key.end()), value);
  });
  return out;
}

VarSet SchemaOfArity(size_t arity, VarId first) {
  VarSet schema;
  for (size_t i = 0; i < arity; ++i) {
    schema.Insert(first + static_cast<VarId>(i));
  }
  return schema;
}

// A store's rows in row order, annotations compared by bit pattern.
template <typename K>
std::vector<std::pair<Tuple, K>> Rows(const ColumnarStore<K>& store) {
  std::vector<std::pair<Tuple, K>> out;
  store.ForEach(
      [&](const Tuple& key, const K& value) { out.emplace_back(key, value); });
  return out;
}
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
template <typename K>
bool SameBits(const K& a, const K& b) {
  return a == b;
}

// Which sides of a join get rows, so empty and one-sided inputs are
// covered on purpose rather than by chance.
enum class Sides { kBoth, kLeftOnly, kRightOnly, kNeither, kDisjoint };

// Checks JoinUnionProjectInto against the unfused two-step pipeline on
// seeded random stores, over every arity in [1, 4], every drop position
// and every side shape. Output stores are reused across rounds, so stale
// kernel scratch (hashes, the matched-row bitmap of a bigger earlier
// join) would show.
template <typename M, typename Draw>
void ExpectFusedEqualsPipeline(const M& monoid, Draw draw, uint64_t seed) {
  using K = typename M::value_type;
  const auto plus = [&monoid](const K& a, const K& b) {
    return monoid.Plus(a, b);
  };
  const auto times = [&monoid](const K& a, const K& b) {
    return monoid.Times(a, b);
  };
  Rng rng(seed);
  ColumnarStore<K> joined;
  ColumnarStore<K> expected;
  ColumnarStore<K> fused;
  size_t compared = 0;
  for (int round = 0; round < 12; ++round) {
    for (Sides sides : {Sides::kBoth, Sides::kLeftOnly, Sides::kRightOnly,
                        Sides::kNeither, Sides::kDisjoint}) {
      const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
      // A tight domain makes shared keys and ⊕-merges common.
      const int64_t domain = 2 + rng.UniformInt(0, 4);
      const auto fill = [&](ColumnarStore<K>* store, bool rows,
                            int64_t offset) {
        store->Reset(arity);
        const size_t n = rows ? static_cast<size_t>(rng.UniformInt(1, 60)) : 0;
        for (size_t i = 0; i < n; ++i) {
          Tuple key = RandomKey(rng, arity, domain);
          key[0] += offset;
          store->Set(key, draw(rng));
        }
      };
      ColumnarStore<K> left;
      ColumnarStore<K> right;
      fill(&left, sides != Sides::kRightOnly && sides != Sides::kNeither, 0);
      fill(&right, sides != Sides::kLeftOnly && sides != Sides::kNeither,
           sides == Sides::kDisjoint ? domain : 0);
      for (size_t drop = 0; drop < arity; ++drop) {
        joined.Reset(arity);
        ColumnarStore<K>::JoinUnionInto(left, right, times, monoid.Zero(),
                                        &joined);
        expected.Reset(arity - 1);
        joined.ProjectDropInto(drop, plus, &expected);
        fused.Reset(arity - 1);
        const size_t join_rows = ColumnarStore<K>::JoinUnionProjectInto(
            left, right, drop, times, plus, monoid.Zero(), &fused);

        EXPECT_EQ(join_rows, joined.size());
        const auto want = Rows(expected);
        const auto got = Rows(fused);
        ASSERT_EQ(got.size(), want.size()) << "arity " << arity << " drop "
                                           << drop << " round " << round;
        for (size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].first, want[r].first) << "row " << r;
          EXPECT_TRUE(SameBits(got[r].second, want[r].second))
              << "row " << r << " arity " << arity << " drop " << drop;
        }
        // Every key is also reachable through the fused result's index.
        for (const auto& [key, value] : want) {
          ASSERT_NE(fused.Find(key), nullptr);
        }
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 100u);
}

TEST(AnnotatedPropertyTest, FusedJoinProjectEqualsPipelineCount) {
  ExpectFusedEqualsPipeline(
      CountMonoid{}, [](Rng& rng) { return 1 + rng.Next() % 1000; }, 0xf00dULL);
}

TEST(AnnotatedPropertyTest, FusedJoinProjectEqualsPipelineFloatingPlus) {
  // 1 - (1-p)(1-q) rounds differently in every order: only the unfused
  // visiting order gives the same bits.
  ExpectFusedEqualsPipeline(
      ProbMonoid{},
      [](Rng& rng) {
        return 0.01 + 0.98 * static_cast<double>(rng.Next() % 100003) /
                          100003.0;
      },
      0xd0b1eULL);
}

TEST(AnnotatedPropertyTest, FusedJoinProjectEqualsPipelineNonAnnihilating) {
  // #Sat: x ⊗ 0 ≠ 0, so one-sided rows carry real values (Lemma 6.6's
  // union of supports).
  const SatCountMonoid<uint64_t> monoid(4);
  ASSERT_NE(monoid.Times(monoid.Star(), monoid.Zero()), monoid.Zero());
  ExpectFusedEqualsPipeline(
      monoid,
      [&monoid](Rng& rng) {
        return rng.Next() % 2 == 0 ? monoid.Star() : monoid.One();
      },
      0x5a7ULL);
}

// Applies `updates` to a fresh relation in the given order.
template <typename Combine>
AnnotatedRelation<uint64_t> Apply(
    const std::vector<std::pair<Tuple, uint64_t>>& updates, VarSet schema,
    Combine combine) {
  AnnotatedRelation<uint64_t> rel(std::move(schema));
  for (const auto& [key, value] : updates) {
    rel.Merge(key, value, combine);
  }
  return rel;
}

// The std::map fold of `updates`: what any correct relation must hold.
template <typename Combine>
std::map<std::vector<Value>, uint64_t> Model(
    const std::vector<std::pair<Tuple, uint64_t>>& updates,
    Combine combine) {
  std::map<std::vector<Value>, uint64_t> out;
  for (const auto& [key, value] : updates) {
    auto [it, inserted] =
        out.emplace(std::vector<Value>(key.begin(), key.end()), value);
    if (!inserted) {
      it->second = combine(it->second, value);
    }
  }
  return out;
}

TEST(AnnotatedPropertyTest, MergeIsOrderIndependentPerMonoid) {
  // ⊕ candidates: counting + (CountMonoid's Plus) and min with ∞ identity
  // (ResilienceMonoid's Plus). Both are associative and commutative, so
  // any permutation of the update sequence must produce the relation the
  // map model folds.
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const auto min_combine = [](uint64_t a, uint64_t b) {
    return ResilienceMonoid{}.Plus(a, b);
  };

  Rng rng(0xfeedULL);
  for (int round = 0; round < 30; ++round) {
    const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    const VarSet schema = SchemaOfArity(arity, 0);
    std::vector<std::pair<Tuple, uint64_t>> updates;
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 60));
    for (size_t i = 0; i < n; ++i) {
      // Tight domain so duplicate keys (the merge path) are common.
      updates.emplace_back(RandomKey(rng, arity, 4),
                           1 + rng.Next() % 100);
    }
    std::vector<std::pair<Tuple, uint64_t>> shuffled = updates;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const auto reference_plus = Model(updates, plus);
    const auto reference_min = Model(updates, min_combine);
    EXPECT_EQ(Snapshot(Apply(updates, schema, plus)), reference_plus);
    EXPECT_EQ(Snapshot(Apply(shuffled, schema, plus)), reference_plus);
    EXPECT_EQ(Snapshot(Apply(updates, schema, min_combine)), reference_min);
    EXPECT_EQ(Snapshot(Apply(shuffled, schema, min_combine)),
              reference_min);
  }
}

TEST(AnnotatedPropertyTest, ResetAndReuseNeverLeaksPriorEntries) {
  Rng rng(0xabcdULL);
  AnnotatedRelation<uint64_t> rel(SchemaOfArity(2, 0));
  for (int round = 0; round < 200; ++round) {
    // Fill under a random schema/arity...
    const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const VarSet schema = SchemaOfArity(arity, rng.Next() % 8);
    rel.Reset(schema);
    EXPECT_TRUE(rel.empty()) << "Reset left entries behind";
    std::vector<std::pair<Tuple, uint64_t>> inserted;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 30));
    for (size_t i = 0; i < n; ++i) {
      Tuple key = RandomKey(rng, arity, 8);
      const uint64_t value = rng.Next() % 1000;
      rel.Set(key, value);
      inserted.emplace_back(std::move(key), value);
    }
    // ... and verify the content is exactly what this round inserted:
    // last-write-wins per key, nothing from earlier rounds.
    std::map<std::vector<Value>, uint64_t> expected;
    for (const auto& [key, value] : inserted) {
      expected[std::vector<Value>(key.begin(), key.end())] = value;
    }
    EXPECT_EQ(Snapshot(rel), expected);
    EXPECT_EQ(rel.size(), expected.size());
  }
}

}  // namespace
}  // namespace hierarq
