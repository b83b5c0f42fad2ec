#ifndef HIERARQ_UTIL_SIMD_H_
#define HIERARQ_UTIL_SIMD_H_

/// \file simd.h
/// \brief A small SIMD portability shim for the columnar hot loops.
///
/// The column store (data/columnar.h) spends its time in two
/// kinds of loop PR 3 deliberately left scalar: folding per-row hashes
/// column by column (`HashCombine` over a contiguous `Value` array) and
/// comparing a probe key against one candidate row's column lanes. Both
/// are data-parallel with no cross-element dependency, so they vectorize
/// cleanly — but the build must stay runnable on any x86-64 (and any
/// non-x86 host), so nothing here requires compiling the whole tree with
/// `-mavx2`.
///
/// The shim therefore provides exactly four tiers:
///
///   * `kScalar` — portable C++, always available, and the reference
///     the vector tiers must match bit-for-bit (the hash kernels are pure
///     integer math, so every tier produces identical hashes — verified
///     by tests/simd_test.cpp);
///   * `kSse2`   — 2 lanes; SSE2 is part of the x86-64 baseline, so this
///     tier compiles unconditionally on x86-64;
///   * `kAvx2`   — 4 lanes; compiled behind a function-level
///     `__attribute__((target("avx2")))` so the translation unit builds
///     without `-mavx2`, and *dispatched at runtime* via
///     `__builtin_cpu_supports`;
///   * `kAvx512` — 8 lanes; needs AVX-512F + AVX-512DQ (the DQ extension
///     carries the native 64-bit `vpmullq`, so this tier skips the 32-bit
///     multiply decomposition the narrower tiers emulate). Same
///     function-level target attributes + runtime detection.
///
/// The active tier is resolved once (overridable by the `HIERARQ_SIMD`
/// environment variable — `scalar` / `sse2` / `avx2` / `avx512` — and by
/// `SetLevelForTesting`, both clamped to what the CPU actually supports),
/// so benches can A/B the scalar and vector kernels on identical rows in
/// one binary.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hierarq::simd {

/// Vector instruction tiers, in increasing capability order.
enum class Level : unsigned char {
  kScalar = 0,  ///< Portable C++ reference loops.
  kSse2 = 1,    ///< 2x64-bit lanes (x86-64 baseline).
  kAvx2 = 2,    ///< 4x64-bit lanes (runtime-detected).
  kAvx512 = 3,  ///< 8x64-bit lanes (runtime-detected, needs F + DQ).
};

/// "scalar" / "sse2" / "avx2" / "avx512" — the spelling used by the
/// HIERARQ_SIMD environment override and the bench row tags.
const char* LevelName(Level level);

/// The most capable tier this CPU supports (independent of overrides).
Level DetectedLevel();

/// The tier the kernels currently dispatch to. Defaults to the widest of
/// kAvx512/kAvx2 the CPU has and kScalar otherwise — the 2-lane SSE2 hash
/// fold emulates 64-bit multiplies and measures slower than scalar
/// `imul`, so it is never picked implicitly — then adjusted by the
/// HIERARQ_SIMD environment variable and SetLevelForTesting (both clamped
/// to DetectedLevel()).
Level ActiveLevel();

/// Forces dispatch to `level` (clamped to DetectedLevel()); the bench
/// emitters and the kernel-equivalence tests measure scalar-vs-vector on
/// identical inputs this way. Not thread-safe against concurrent kernel
/// calls — call it from test/bench setup only.
void SetLevelForTesting(Level level);

/// The batched Mix64 hash fold: h[r] = HashCombine(h[r], column[r]) for
/// every r in [0, n) — one column's contribution to n per-row hashes
/// (util/hash.h's exact sequence, so vectorized and scalar folds agree on
/// every bit). This is the kernel behind ColumnarStore's batch row
/// hashing (Rule 1 surviving-column folds, Rule 2 whole-row folds, index
/// rebuilds).
void HashCombineRows(uint64_t* h, const int64_t* column, size_t n);

/// Probe-key compare against one candidate row's gathered column lanes:
/// columns[c][row] == key[c] for all c in [0, arity). The AVX2 tier
/// packs the row's lanes (arity >= 3) and compares branch-free; every
/// other tier — including SSE2, where two lanes cannot beat the two- or
/// three-compare early-exit loop — runs the scalar compare ColumnarStore
/// used before. `key` must have `arity` readable elements.
bool RowEqualsKey(const std::vector<std::vector<int64_t>>& columns,
                  uint32_t row, const int64_t* key, size_t arity);

/// Prefetch hint for upcoming random-access probes (hash-table meta/row
/// loads); a no-op on compilers without __builtin_prefetch.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/1);
#else
  (void)address;
#endif
}

}  // namespace hierarq::simd

#endif  // HIERARQ_UTIL_SIMD_H_
