/// \file hypervector.hpp
/// Bipolar hypervectors — the primary representation used by GraphHD.
///
/// The paper uses 10,000-dimensional bipolar vectors (components in {-1,+1}).
/// Components are stored as int8_t; arithmetic (dot products, bundling
/// accumulation) widens to int32/int64, which is exact for any realistic
/// dimension and bundle count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/random.hpp"

namespace graphhd::hdc {

/// Default seed of the majority tie-break stream used when thresholding
/// bundles.  Every consumer of the convention — BundleAccumulator (dense and
/// packed thresholds), the class memory and the inference snapshot — must
/// derive its per-slot streams from this one constant, or quantized class
/// vectors stop being reproducible across representations.
inline constexpr std::uint64_t kMajorityTieSeed = 0x7fb5d329728ea185ULL;

class PackedHypervector;

/// Dense bipolar hypervector with components in {-1, +1}.
///
/// Value type: copyable, movable, equality-comparable.  The dimension is a
/// runtime parameter fixed at construction; all binary operations require
/// matching dimensions and throw std::invalid_argument otherwise.
class Hypervector {
 public:
  /// Creates an empty (dimension 0) hypervector.  Mostly useful as a
  /// placeholder before assignment.
  Hypervector() = default;

  /// Creates a hypervector of `dimension` components, all set to +1.
  explicit Hypervector(std::size_t dimension);

  /// Creates a hypervector from raw components; every element must be ±1
  /// (throws std::invalid_argument otherwise).
  explicit Hypervector(std::vector<std::int8_t> components);

  /// Draws a uniformly random bipolar vector, the "basis hypervector"
  /// primitive: each component is ±1 i.i.d. with probability 1/2.
  [[nodiscard]] static Hypervector random(std::size_t dimension, Rng& rng);

  [[nodiscard]] std::size_t dimension() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::span<const std::int8_t> components() const noexcept { return data_; }

  /// Flips component `i` in place (+1 <-> -1).  Used by noise-robustness
  /// experiments and tests.
  void flip(std::size_t i) noexcept { data_[i] = static_cast<std::int8_t>(-data_[i]); }

  /// Returns a copy with `count` randomly chosen distinct components flipped.
  [[nodiscard]] Hypervector with_noise(std::size_t count, Rng& rng) const;

  /// Exact dot product, widened to int64.  For bipolar vectors
  /// dot == dimension - 2 * hamming_distance.
  [[nodiscard]] std::int64_t dot(const Hypervector& other) const;

  /// Number of positions where the two vectors differ.
  [[nodiscard]] std::size_t hamming_distance(const Hypervector& other) const;

  /// Cosine similarity in [-1, 1].  Bipolar vectors have constant norm
  /// sqrt(d), so this is dot / d.  Dimension-0 vectors compare as 0.
  [[nodiscard]] double cosine(const Hypervector& other) const;

  /// Element-wise product — the HDC *binding* operator (×).  Binding is
  /// commutative, associative, self-inverse, and yields a vector
  /// quasi-orthogonal to both operands.
  [[nodiscard]] Hypervector bind(const Hypervector& other) const;

  friend bool operator==(const Hypervector&, const Hypervector&) = default;

 private:
  std::vector<std::int8_t> data_;
};

/// Integer accumulator used to bundle (majority-vote) many bipolar vectors
/// without losing counts.  Bundling in HDC is the element-wise majority; this
/// class accumulates signed counts and thresholds at the end, breaking ties
/// with a seeded random vector so that an even number of inputs still yields
/// a valid bipolar result (the convention used by torchhd and most HDC
/// implementations).
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

  /// Adds a hypervector with an integer weight (1 = one bundle member;
  /// retraining adds the encoded sample to the correct class and subtracts
  /// it from the mispredicted one).
  void add(const Hypervector& hv, std::int32_t weight = 1);

  /// Adds a packed vector (bit set = bipolar -1) with an integer weight:
  /// the same counters as add(hv.to_bipolar(), weight), through the
  /// accumulate_packed kernel.
  void add(const PackedHypervector& hv, std::int32_t weight = 1);

  /// Removes one previously added hypervector (weight -1 shortcut).
  void subtract(const Hypervector& hv) { add(hv, -1); }

  /// Adds bind(a, b) without materializing the bound vector — the hot loop
  /// of GraphHD's edge encoding (one fused multiply-accumulate per
  /// component instead of an allocation per edge).
  void add_bound(const Hypervector& a, const Hypervector& b);

  /// Folds another accumulator in: element-wise counter addition, add counts
  /// summed, weight parities XOR'd.  Because bundling is commutative and
  /// associative over the signed counters, the result is *exactly* the
  /// accumulator that adding both operands' inputs into one accumulator (in
  /// any order) would produce — the primitive of sharded map-reduce
  /// training (GraphHdModel::merge).  Dimensions must match (throws
  /// std::invalid_argument).
  void merge(const BundleAccumulator& other);

  /// Majority threshold: sign of each counter; zeros resolved by a random
  /// ±1 vector derived from `tie_break_seed` (deterministic per seed).
  /// When the accumulated weight parity is odd no component can be zero and
  /// the tie stream is skipped entirely (identical output, faster).
  [[nodiscard]] Hypervector threshold(std::uint64_t tie_break_seed = kMajorityTieSeed) const;

  /// threshold() in packed form, computed on counter words without a
  /// bipolar round trip: always the exact packing of threshold(seed).
  [[nodiscard]] PackedHypervector threshold_packed(
      std::uint64_t tie_break_seed = kMajorityTieSeed) const;

  /// True when ties are impossible (odd total absolute weight).
  [[nodiscard]] bool tie_free() const noexcept { return weight_parity_odd_; }

  /// Cosine similarity between the raw integer accumulator and a bipolar
  /// vector.  This is the "non-quantized model" used by the retraining
  /// extension; it is exact rather than majority-rounded.
  [[nodiscard]] double cosine(const Hypervector& hv) const;

  /// Resets to all-zero counters (dimension preserved).
  void clear() noexcept;

 private:
  std::vector<std::int32_t> counts_;
  std::size_t count_ = 0;
  bool weight_parity_odd_ = false;  ///< parity of the total absolute weight.
};

/// Bundles a batch of hypervectors by exact majority with seeded
/// tie-breaking.  Equivalent to accumulating all inputs and thresholding.
/// Requires a non-empty input batch with uniform dimensions.
[[nodiscard]] Hypervector bundle(std::span<const Hypervector> inputs,
                                 std::uint64_t tie_break_seed = kMajorityTieSeed);

}  // namespace graphhd::hdc
