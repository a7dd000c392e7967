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
/// XOR of bits corresponds exactly to multiplication of signs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/random.hpp"

namespace graphhd::hdc {

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
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

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

}  // namespace graphhd::hdc
