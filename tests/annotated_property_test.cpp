// Randomized property tests for the relation laws AnnotatedRelation must
// satisfy:
//
//   * AssignFrom under a permuted/renamed schema is an isomorphism — the
//     copy holds exactly the source's (key, annotation) pairs, re-labelled;
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
#include <cstdint>
#include <map>
#include <vector>

#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/data/annotated.h"
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

TEST(AnnotatedPropertyTest, AssignFromIsSchemaRelabelledIsomorphism) {
  Rng rng(0x5eedULL);
  for (int round = 0; round < 100; ++round) {
    const size_t arity = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    AnnotatedRelation<uint64_t> source(SchemaOfArity(arity, 0));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
    for (size_t i = 0; i < n; ++i) {
      source.Merge(RandomKey(rng, arity, 16), rng.Next() % 1000,
                   [](uint64_t a, uint64_t b) { return a + b; });
    }

    // Target starts pre-polluted with entries that the assignment must
    // fully replace.
    AnnotatedRelation<uint64_t> target(SchemaOfArity(arity, 50));
    target.Set(RandomKey(rng, arity, 16), 77);
    const VarSet renamed = SchemaOfArity(arity, 100);
    target.AssignFrom(source, renamed);

    // The copy carries the new labels and is entry-for-entry identical to
    // the source.
    EXPECT_TRUE(target.schema() == renamed);
    EXPECT_EQ(target.size(), source.size());
    EXPECT_EQ(Snapshot(target), Snapshot(source));
    source.ForEach([&](const Tuple& key, const uint64_t& value) {
      const uint64_t* found = target.Find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, value);
    });

    // The copy is independent: mutating it leaves the source intact.
    const auto before = Snapshot(source);
    target.Merge(RandomKey(rng, arity, 16), 5,
                 [](uint64_t a, uint64_t b) { return a + b; });
    EXPECT_EQ(Snapshot(source), before);
  }
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
