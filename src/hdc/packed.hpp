/// \file packed.hpp
/// Bit-packed binary hypervectors.
///
/// The paper's experiments use bipolar vectors, but HDC hardware mappings
/// (Schmuck et al., JETC 2019 — cited as the efficiency motivation) operate
/// on dense *binary* vectors where binding is XOR and similarity is Hamming
/// distance, both of which vectorize to word-level popcounts.  This module
/// provides that representation: 64 components per machine word, giving the
/// single-clock-cycle-style bit parallelism the paper appeals to.
///
/// The mapping between representations is bit b = (component == -1), so that
/// XOR of bits corresponds exactly to multiplication of signs.  This is the
/// library's one numeric representation: the encoder, the class memory, the
/// inference snapshot and the server all compute on these words.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/random.hpp"

namespace graphhd::hdc {

/// Default seed of the majority tie-break stream used when thresholding
/// bundles.  Every consumer of the convention — BundleAccumulator, the class
/// memory and the inference snapshot — must derive its per-slot streams from
/// this one constant, or quantized class vectors stop being reproducible.
inline constexpr std::uint64_t kMajorityTieSeed = 0x7fb5d329728ea185ULL;

/// Dense binary hypervector packed 64 components per uint64 word.
class PackedHypervector {
 public:
  PackedHypervector() = default;

  /// All-zero (all +1 in bipolar terms) vector of `dimension` bits.
  explicit PackedHypervector(std::size_t dimension);

  /// Uniformly random binary vector.
  [[nodiscard]] static PackedHypervector random(std::size_t dimension, Rng& rng);

  /// Packs a bipolar hypervector (bit = 1 where component == -1).
  [[nodiscard]] static PackedHypervector from_bipolar(const Hypervector& hv);

  /// Adopts raw words (e.g. a bit-sliced comparator mask) as a packed vector.
  /// `words.size()` must be exactly ceil(dimension / 64); bits beyond
  /// `dimension` in the last word are cleared.  Throws std::invalid_argument
  /// on a size mismatch.
  [[nodiscard]] static PackedHypervector from_words(std::vector<std::uint64_t> words,
                                                    std::size_t dimension);

  /// Unpacks to the bipolar representation.
  [[nodiscard]] Hypervector to_bipolar() const;

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] bool empty() const noexcept { return dimension_ == 0; }
  /// The words, viewed in place: lvalues only, since a view of a temporary
  /// would dangle (`for (w : encoder.encode_packed(g).words())`).
  [[nodiscard]] std::span<const std::uint64_t> words() const& noexcept { return words_; }
  std::span<const std::uint64_t> words() && = delete;
  std::span<const std::uint64_t> words() const&& = delete;

  /// Reads bit `i` (true means bipolar component -1).  Throws
  /// std::out_of_range when `i >= dimension()` — an unchecked read past the
  /// tail word would be undefined behaviour, and reads inside the tail slack
  /// would silently return the masked padding.
  [[nodiscard]] bool bit(std::size_t i) const {
    if (i >= dimension_) throw_index_error("bit", i);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit `i`.  Throws std::out_of_range when `i >= dimension()` (a
  /// write into the tail slack would corrupt every later Hamming distance).
  void set_bit(std::size_t i, bool value) {
    if (i >= dimension_) throw_index_error("set_bit", i);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// XOR binding — the binary counterpart of bipolar multiplication.
  [[nodiscard]] PackedHypervector bind(const PackedHypervector& other) const;

  /// Number of differing components, computed with word popcounts.
  [[nodiscard]] std::size_t hamming_distance(const PackedHypervector& other) const;

  /// Normalized similarity in [-1, 1]: 1 - 2 * hamming / dimension.  Equal to
  /// the cosine of the corresponding bipolar vectors.
  [[nodiscard]] double similarity(const PackedHypervector& other) const;

  /// Returns a copy with `count` distinct components flipped, at the
  /// positions rng.sample_without_replacement(dimension(), count) draws —
  /// the corruption of the noise-robustness experiments.
  [[nodiscard]] PackedHypervector with_noise(std::size_t count, Rng& rng) const;

  /// Cyclic rotation by `shift` positions — the HDC *permutation* operator:
  /// bit i moves to (i + shift) mod dimension.  Permutation preserves
  /// distances and decorrelates a vector from itself, which is what the
  /// encoder's extension edges use it for.  Negative shifts rotate the
  /// other way.
  [[nodiscard]] PackedHypervector permute(std::ptrdiff_t shift) const;

  friend bool operator==(const PackedHypervector&, const PackedHypervector&) = default;

 private:
  [[noreturn]] void throw_index_error(const char* op, std::size_t i) const;
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  /// Zeroes the unused high bits of the last word (class invariant).
  void mask_tail() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t dimension_ = 0;
};

/// Integer accumulator used to bundle (majority-vote) many packed vectors
/// without losing counts: one signed counter per component, where a clear
/// bit (bipolar +1) adds the weight and a set bit subtracts it.  Bundling in
/// HDC is the element-wise majority; this class accumulates signed counts
/// and thresholds at the end, breaking ties with a seeded random vector so
/// that an even number of inputs still yields a valid result (the
/// convention used by torchhd and most HDC implementations).
class BundleAccumulator {
 public:
  BundleAccumulator() = default;
  explicit BundleAccumulator(std::size_t dimension);

  /// Reconstructs an accumulator from its serialized state (counters, add
  /// count, weight parity).  Used by model persistence.
  [[nodiscard]] static BundleAccumulator from_raw(std::vector<std::int32_t> counts,
                                                  std::size_t count, bool weight_parity_odd);

  [[nodiscard]] std::size_t dimension() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::span<const std::int32_t> counts() const noexcept { return counts_; }

  /// Adds a packed vector with an integer weight (1 = one bundle member;
  /// retraining adds the encoded sample to the correct class and subtracts
  /// it from the mispredicted one), through the accumulate_packed kernel.
  void add(const PackedHypervector& hv, std::int32_t weight = 1);

  /// Folds another accumulator in: element-wise counter addition, add counts
  /// summed, weight parities XOR'd.  Because bundling is commutative and
  /// associative over the signed counters, the result is *exactly* the
  /// accumulator that adding both operands' inputs into one accumulator (in
  /// any order) would produce — the primitive of sharded map-reduce
  /// training (GraphHdModel::merge).  Dimensions must match (throws
  /// std::invalid_argument).
  void merge(const BundleAccumulator& other);

  /// Majority threshold in packed form: bit i is set when counter i is
  /// negative; zero counters are ties, resolved by the seeded stream of
  /// tie_sign_words(tie_break_seed, dimension()) (one draw per component).
  /// When the accumulated weight parity is odd no counter can be zero and
  /// the tie stream is skipped entirely (identical output, faster).
  [[nodiscard]] PackedHypervector threshold_packed(
      std::uint64_t tie_break_seed = kMajorityTieSeed) const;

  /// True when ties are impossible (odd total absolute weight).
  [[nodiscard]] bool tie_free() const noexcept { return weight_parity_odd_; }

  /// Resets to all-zero counters (dimension preserved).
  void clear() noexcept;

 private:
  std::vector<std::int32_t> counts_;
  std::size_t count_ = 0;
  bool weight_parity_odd_ = false;  ///< parity of the total absolute weight.
};

}  // namespace graphhd::hdc
