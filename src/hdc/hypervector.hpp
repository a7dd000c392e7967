/// \file hypervector.hpp
/// Bipolar hypervectors: the paper's ±1 notation, as a validated value type
/// at the API edge.
///
/// The paper states GraphHD on 10,000-dimensional bipolar vectors
/// (components in {-1,+1}).  The library computes in packed words
/// (hdc/packed.hpp, bit set = bipolar -1); a Hypervector is only ever built
/// from or unpacked to those words (PackedHypervector::from_bipolar /
/// to_bipolar) by callers that want ±1 components.  The bipolar arithmetic
/// itself lives in the test oracle (tests/support/dense_reference.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace graphhd::hdc {

/// Dense bipolar hypervector with components in {-1, +1}, stored as int8_t.
///
/// Value type: copyable, movable, equality-comparable.  The dimension is a
/// runtime parameter fixed at construction.
class Hypervector {
 public:
  /// Creates an empty (dimension 0) hypervector.  Mostly useful as a
  /// placeholder before assignment.
  Hypervector() = default;

  /// Creates a hypervector from raw components; every element must be ±1
  /// (throws std::invalid_argument otherwise).
  explicit Hypervector(std::vector<std::int8_t> components);

  [[nodiscard]] std::size_t dimension() const noexcept { return data_.size(); }

  [[nodiscard]] std::int8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::span<const std::int8_t> components() const noexcept { return data_; }

  friend bool operator==(const Hypervector&, const Hypervector&) = default;

 private:
  std::vector<std::int8_t> data_;
};

}  // namespace graphhd::hdc
