/// \file kernels.hpp
/// Runtime-dispatched SIMD kernels for the HDC hot loops.
///
/// GraphHD's efficiency claim reduces to four inner loops on packed words:
/// XOR-bind, popcount-Hamming distance (one row, or the batched one-vs-all
/// class-memory query), the bit-sliced majority (full adder + counter
/// threshold) and the signed-counter bundle add.  Every training, predict
/// and serving path runs on them; the paper's bipolar arithmetic lives only
/// in the test oracle (tests/support/dense_reference.hpp).  This module
/// provides one scalar reference implementation plus optional AVX2 /
/// AVX-512 / NEON variants, selected once at startup from CPUID
/// (overridable with GRAPHHD_KERNEL=scalar|avx2|avx512|neon|auto for
/// testing and benchmarking).
///
/// Contract: every variant is *bit-identical* to the scalar reference on the
/// documented input domain (randomized-equivalence-tested in
/// tests/test_kernels.cpp, including odd dimensions and tail words).  All
/// kernels are pure integer code, so "identical" is exact, not approximate.
///
/// Build note: each SIMD variant lives in its own translation unit compiled
/// with per-file ISA flags (see CMakeLists.txt); nothing in this header may
/// require more than baseline ISA.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace graphhd::hdc::kernels {

/// Table of kernel entry points for one ISA variant.
///
/// Word kernels operate on 64-bit words packing 64 binary components; `n` is
/// the word count.  Counter kernels operate on per-component int32 signed
/// counters; `dimension` is the component count (bits beyond `dimension` in
/// the last input word are ignored, output mask bits beyond it stay zero).
struct KernelOps {
  const char* name;     ///< "scalar", "avx2", "avx512", "neon".
  int priority;         ///< auto-selection rank (higher wins).
  bool (*supported)();  ///< runtime CPU capability check.

  // --- packed binary (64 components per word) -----------------------------
  /// out[w] = a[w] ^ b[w] — packed XOR-bind.  `out` may alias `a` or `b`.
  void (*xor_words)(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n);
  /// Total popcount of a ^ b — Hamming distance over packed words.
  std::size_t (*hamming_words)(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
  /// One-vs-all query: out[r] = hamming(query, rows[r]) for `num_rows` class
  /// rows of `n` words each — the associative-memory inference op.
  void (*hamming_batch)(const std::uint64_t* query, const std::uint64_t* const* rows,
                        std::size_t num_rows, std::size_t n, std::size_t* out);
  /// Bit-sliced full adder: plane'[w] = s ^ p ^ x, carry[w] = maj(s, p, x)
  /// where s = plane[w], p = pending[w], x = incoming[w].  The carry-save
  /// step of the bitslice majority bundler.
  void (*full_adder)(std::uint64_t* plane, const std::uint64_t* pending,
                     const std::uint64_t* incoming, std::uint64_t* carry, std::size_t n);

  // --- signed per-component counters (bundling) ---------------------------
  /// counts[i] += bit_i(bits) ? -weight : +weight for i < dimension — the
  /// packed BundleAccumulator weighted add.
  void (*accumulate_packed)(std::int32_t* counts, const std::uint64_t* bits,
                            std::size_t dimension, std::int32_t weight);
  /// Majority threshold masks: sets bit i of `negative` iff counts[i] < 0
  /// and (when `zero` is non-null) bit i of `zero` iff counts[i] == 0, for
  /// i < dimension.  Callers pass zero-filled ceil(dimension/64)-word
  /// buffers; bits beyond `dimension` are left untouched (zero).
  void (*threshold_counters)(const std::int32_t* counts, std::size_t dimension,
                             std::uint64_t* negative, std::uint64_t* zero);
};

/// Variant getters.  Each returns the variant's ops table, or nullptr when
/// the variant was not compiled in (wrong architecture or missing compiler
/// support) — so the dispatch layer never needs per-ISA preprocessor logic.
[[nodiscard]] const KernelOps* scalar_kernels() noexcept;
[[nodiscard]] const KernelOps* avx2_kernels() noexcept;
[[nodiscard]] const KernelOps* avx512_kernels() noexcept;
[[nodiscard]] const KernelOps* neon_kernels() noexcept;

/// All compiled-in variants, highest priority first.  Always contains the
/// scalar reference; each variant appears exactly once.
[[nodiscard]] const std::vector<const KernelOps*>& compiled_variants();

/// The scalar reference table (always compiled in, always supported).
[[nodiscard]] const KernelOps& scalar() noexcept;

/// The best compiled-in variant whose supported() check passes on this CPU.
[[nodiscard]] const KernelOps& best_supported() noexcept;

/// Looks up a variant by name ("auto" resolves to best_supported()).  Throws
/// std::runtime_error with the list of valid names when `name` is unknown,
/// or when the variant is compiled in but not supported by this CPU.
[[nodiscard]] const KernelOps& select(std::string_view name);

/// The active dispatch table.  Selected on first use: GRAPHHD_KERNEL when
/// set (errors propagate as std::runtime_error), otherwise best_supported().
/// Subsequent calls are one lock-free atomic load — safe from pool workers.
[[nodiscard]] const KernelOps& active();

/// Overrides the active table (tests/benchmarks; not thread-safe against
/// concurrent kernel users — switch between, not during, parallel regions).
void set_active(const KernelOps& ops) noexcept;

/// Re-runs startup selection (env var + CPUID).  On error the previous
/// active table is left in place and the error is thrown to the caller.
void reset_from_env();

}  // namespace graphhd::hdc::kernels
