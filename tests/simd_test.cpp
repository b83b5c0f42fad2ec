// Kernel-equivalence tests for util/simd.h: every vector tier must match
// the scalar reference bit-for-bit (the kernels are pure integer math —
// there is no tolerance to hide behind).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hierarq/util/hash.h"
#include "hierarq/util/random.h"
#include "hierarq/util/simd.h"

namespace hierarq {
namespace {

// The tiers available on this host, scalar always included.
std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSse2) {
    levels.push_back(simd::Level::kSse2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx512) {
    levels.push_back(simd::Level::kAvx512);
  }
  return levels;
}

// Restores the default dispatch decision after each test so the order
// tests run in cannot leak a forced level.
class SimdTest : public ::testing::Test {
 protected:
  ~SimdTest() override {
    simd::SetLevelForTesting(simd::DetectedLevel() >= simd::Level::kAvx2
                                 ? simd::DetectedLevel()
                                 : simd::Level::kScalar);
  }
};

TEST_F(SimdTest, HashCombineRowsMatchesScalarBitForBitOnEveryTier) {
  Rng rng(0x51bdULL);
  // Ragged sizes exercise every vector-width tail, including 0 and 1.
  for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 1000, 4097}) {
    std::vector<int64_t> column(n);
    std::vector<uint64_t> seed_h(n);
    for (size_t i = 0; i < n; ++i) {
      column[i] = rng.UniformInt(-1000000, 1000000);
      seed_h[i] = Mix64(0xabcdef ^ i);
    }

    std::vector<uint64_t> reference = seed_h;
    simd::SetLevelForTesting(simd::Level::kScalar);
    simd::HashCombineRows(reference.data(), column.data(), n);
    // The scalar kernel must itself equal hash.h's HashCombine.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(reference[i],
                HashCombine(seed_h[i], static_cast<uint64_t>(column[i])));
    }

    for (simd::Level level : AvailableLevels()) {
      simd::SetLevelForTesting(level);
      ASSERT_EQ(simd::ActiveLevel(), level);
      std::vector<uint64_t> h = seed_h;
      simd::HashCombineRows(h.data(), column.data(), n);
      EXPECT_EQ(h, reference) << "n=" << n << " level="
                              << simd::LevelName(level);
    }
  }
}

TEST_F(SimdTest, RowEqualsKeyAgreesWithScalarCompareOnEveryTier) {
  Rng rng(0x7a11ULL);
  for (size_t arity = 1; arity <= 6; ++arity) {
    // Columns with values in a tiny domain so equal and unequal rows both
    // occur; row 0 is duplicated at the end for a guaranteed match.
    const size_t rows = 40;
    std::vector<std::vector<int64_t>> columns(arity);
    for (auto& column : columns) {
      column.resize(rows);
      for (size_t r = 0; r < rows; ++r) {
        column[r] = rng.UniformInt(0, 3);
      }
      column.push_back(column[0]);
    }
    for (size_t probe = 0; probe + 1 < rows; ++probe) {
      std::vector<int64_t> key(arity);
      for (size_t c = 0; c < arity; ++c) {
        key[c] = columns[c][probe];
      }
      for (uint32_t row = 0; row < rows + 1; ++row) {
        bool expected = true;
        for (size_t c = 0; c < arity && expected; ++c) {
          expected = columns[c][row] == key[c];
        }
        for (simd::Level level : AvailableLevels()) {
          simd::SetLevelForTesting(level);
          EXPECT_EQ(simd::RowEqualsKey(columns, row, key.data(), arity),
                    expected)
              << "arity=" << arity << " probe=" << probe << " row=" << row
              << " level=" << simd::LevelName(level);
        }
      }
    }
  }
}

TEST_F(SimdTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx512), "avx512");
  // SetLevelForTesting clamps to what the host supports — an AVX-512
  // request on a narrower host falls back instead of faulting.
  simd::SetLevelForTesting(simd::Level::kAvx512);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectedLevel()));
}

}  // namespace
}  // namespace hierarq
