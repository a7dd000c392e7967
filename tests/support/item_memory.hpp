/// \file item_memory.hpp
/// Item memory: the store of fixed random basis hypervectors, as the dense
/// reference draws them.
///
/// HDC encoders map discrete symbols (for GraphHD: PageRank centrality
/// *ranks*) to random basis vectors that stay fixed for the lifetime of the
/// model.  Two properties matter:
///   1. determinism — symbol k always maps to the same vector, across graphs,
///      folds and processes (given the same seed);
///   2. quasi-orthogonality — distinct symbols map to vectors with expected
///      cosine 0 and O(1/sqrt(d)) deviation, which is what makes bundles
///      separable.
///
/// The memory grows lazily: vector k is derived from seed and index k alone
/// (counter-based generation), so `get(5)` yields the same vector whether or
/// not `get(0..4)` were ever requested.  Vector k is
/// random_bipolar(d, Rng(derive_seed(seed, k))); GraphHdEncoder derives the
/// packed form of the same rows straight from the generator's words, and the
/// bit-identity suites hold the two against each other.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/random.hpp"

namespace graphhd::testsupport {

/// Draws a uniformly random bipolar vector, the "basis hypervector"
/// primitive: each component is ±1 i.i.d. with probability 1/2.  One draw
/// supplies 64 components in order, lowest bit first, and a set bit is +1.
[[nodiscard]] inline hdc::Hypervector random_bipolar(std::size_t dimension, hdc::Rng& rng) {
  std::vector<std::int8_t> components(dimension);
  for (std::size_t i = 0; i < dimension;) {
    std::uint64_t bits = rng();
    const std::size_t end = std::min<std::size_t>(dimension, i + 64);
    for (; i < end; ++i, bits >>= 1) components[i] = (bits & 1u) ? 1 : -1;
  }
  return hdc::Hypervector(std::move(components));
}

/// Lazily grown, seed-deterministic table of random bipolar basis vectors.
class ItemMemory {
 public:
  /// \param dimension hypervector dimensionality (the paper uses 10,000).
  /// \param seed      master seed; vector k uses derive_seed(seed, k).
  ItemMemory(std::size_t dimension, std::uint64_t seed) : dimension_(dimension), seed_(seed) {
    if (dimension == 0) {
      throw std::invalid_argument("ItemMemory: dimension must be positive");
    }
  }

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Number of vectors materialized so far.
  [[nodiscard]] std::size_t size() const noexcept { return vectors_.size(); }

  /// Returns basis vector `index`, materializing anything missing.
  /// References remain valid for the lifetime of the memory (the table grows
  /// without relocating existing vectors).
  [[nodiscard]] const hdc::Hypervector& get(std::size_t index) {
    while (index >= vectors_.size()) vectors_.push_back(make(vectors_.size()));
    return vectors_[index];
  }

  /// Stateless variant: computes vector `index` without storing it.
  [[nodiscard]] hdc::Hypervector make(std::size_t index) const {
    hdc::Rng rng(hdc::derive_seed(seed_, static_cast<std::uint64_t>(index)));
    return random_bipolar(dimension_, rng);
  }

 private:
  std::size_t dimension_;
  std::uint64_t seed_;
  std::deque<hdc::Hypervector> vectors_;  ///< deque: growth never invalidates refs.
};

}  // namespace graphhd::testsupport
