/// \file item_memory.hpp
/// Item memory: the store of fixed random basis hypervectors.
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
/// not `get(0..4)` were ever requested.

#pragma once

#include <cstdint>
#include <deque>

#include "hdc/hypervector.hpp"
#include "hdc/random.hpp"

namespace graphhd::hdc {

/// Lazily grown, seed-deterministic table of random bipolar basis vectors.
class ItemMemory {
 public:
  /// \param dimension hypervector dimensionality (the paper uses 10,000).
  /// \param seed      master seed; vector k uses derive_seed(seed, k).
  ItemMemory(std::size_t dimension, std::uint64_t seed);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Number of vectors materialized so far.
  [[nodiscard]] std::size_t size() const noexcept { return vectors_.size(); }

  /// Returns basis vector `index`, materializing anything missing.
  /// References remain valid for the lifetime of the memory (the table grows
  /// without relocating existing vectors).
  [[nodiscard]] const Hypervector& get(std::size_t index);

  /// Stateless variant: computes vector `index` without storing it.
  [[nodiscard]] Hypervector make(std::size_t index) const;

 private:
  std::size_t dimension_;
  std::uint64_t seed_;
  std::deque<Hypervector> vectors_;  ///< deque: growth never invalidates refs.
};

}  // namespace graphhd::hdc
