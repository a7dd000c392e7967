/// \file random.hpp
/// Deterministic, splittable random number generation for the whole library.
///
/// Every stochastic component in GraphHD (basis hypervectors, graph
/// generators, cross-validation shuffles, SGD batch orders) draws from a
/// seeded generator so that a single 64-bit seed reproduces an entire
/// experiment bit-for-bit.  We use splitmix64 for seeding / key derivation
/// and xoshiro256** as the bulk generator — both are tiny, fast, public
/// domain, and well studied.

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace graphhd::hdc {

/// splitmix64 step: advances `state` and returns the next 64-bit output.
/// Used both as a stand-alone stream for seeding and for key derivation.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// Derives a child seed from a parent seed and a stream index.  Two distinct
/// (seed, stream) pairs yield statistically independent generators, which is
/// how the library hands independent randomness to submodules without any
/// shared mutable state.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Derives a child seed from a parent seed and a label, e.g. "vertex-basis".
/// FNV-1a over the label is mixed into the splitmix64 stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) noexcept;

/// FNV-1a 64 over `bytes`, the library's one byte hash: derive_seed hashes
/// labels with it, and it is the v3 artifact's section checksum and the wire
/// handshake's config hash (an integrity check, not an authenticity check).
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept;

/// xoshiro256** 1.0 — a 256-bit-state generator with 64-bit output.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, but the convenience members below avoid
/// libstdc++-version-dependent distribution behaviour: results are identical
/// across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) using Lemire's unbiased multiply-shift
  /// rejection method.  `bound` must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  [[nodiscard]] std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] double next_double() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_double(double lo, double hi) noexcept;

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  [[nodiscard]] bool next_bool(double p = 0.5) noexcept;

  /// Standard normal draw (Marsaglia polar method, internally cached pair).
  [[nodiscard]] double next_gaussian() noexcept;

  /// Random sign: +1 or -1 with equal probability.
  [[nodiscard]] int next_sign() noexcept { return next_bool() ? 1 : -1; }

  /// Creates an independent child generator (see derive_seed).
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

  /// Fisher-Yates shuffle of a vector, deterministic for a given Rng state.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    if (values.size() < 2) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (Floyd's algorithm order is not
  /// needed; we shuffle a prefix).  Returns fewer than `k` only if k > n.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k) noexcept;

  /// The seed this generator was constructed with (for reporting).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Packs the seeded tie-break stream into words: bit i is set iff the i-th
/// draw of Rng(seed).next_sign() is negative, for i < dimension; bits at and
/// beyond `dimension` are zero.  This is the word-level form of the
/// "one draw per component" bundling tie-break convention:
/// BundleAccumulator::threshold_packed ORs it into its majority mask, and
/// GraphHdEncoder derives it once per seed and hands it to
/// BitsliceBundler::threshold_packed (see hdc/packed.cpp and
/// core/encoder.cpp).
[[nodiscard]] std::vector<std::uint64_t> tie_sign_words(std::uint64_t seed,
                                                        std::size_t dimension);

}  // namespace graphhd::hdc
