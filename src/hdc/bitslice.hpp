/// \file bitslice.hpp
/// Bit-sliced ("vertical counter") majority bundling.
///
/// GraphHD's inner loop bundles one ±1 product per edge into per-component
/// majority counters.  Done naively that is d integer multiply-accumulates
/// per edge (d = 10,000).  Because a bipolar product is one *bit* (sign),
/// the counters can instead be kept as a bit-sliced binary number: plane k
/// stores bit k of every component's counter, packed 64 components per word.
/// Additions run through a lazy carry-save adder (Harley-Seal style) at
/// amortized O(d / 64) word operations per edge, and the final majority is
/// decided by a bit-sliced comparator rather than per-component count
/// extraction.
///
/// This is the "binarized bundling" hardware technique of Schmuck et al.
/// (JETC 2019), which the paper cites as the efficiency motivation for HDC;
/// here it serves the same role in software.  The result is bit-identical
/// to BundleAccumulator::threshold_packed over the same inputs (tested in
/// tests/test_bitslice.cpp).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Majority bundler over XOR-bound packed hypervector pairs.
///
/// Counts, per component, how many added inputs had that component equal to
/// -1 (bit set in the packed convention).  threshold_packed() reproduces
/// exactly BundleAccumulator::threshold_packed()'s majority + seeded-tie-
/// break semantics.
class BitsliceBundler {
 public:
  explicit BitsliceBundler(std::size_t dimension);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Adds bind(a, b) — i.e. the packed XOR — without materializing it.
  void add_bound(const PackedHypervector& a, const PackedHypervector& b);

  /// Adds one packed vector.
  void add(const PackedHypervector& hv);

  /// Per-component count of added inputs whose component was -1 (set bit).
  /// Used by tests and diagnostics.
  [[nodiscard]] std::vector<std::uint32_t> negative_counts();

  /// Majority threshold straight into packed words, with the convention of
  /// BundleAccumulator::threshold_packed: a component is -1 (bit set) when more
  /// than half of the added inputs had it set, and exact ties take the bit
  /// of `tie_words`, the seeded ±1 stream packed by tie_sign_words(seed,
  /// dimension()).  Odd add counts cannot tie and ignore `tie_words` (it may
  /// be empty); for even counts it must hold one word per 64 components
  /// (throws std::invalid_argument otherwise).  Bit-identical to
  /// `accumulator.threshold_packed(seed)` over the same inputs.
  [[nodiscard]] PackedHypervector threshold_packed(std::span<const std::uint64_t> tie_words);

  void clear() noexcept;

 private:
  /// Adds the vector currently staged in scratch_ into the lazy carry-save
  /// counter structure.
  void add_staged();

  /// Merges all pending vectors into the committed planes (carry-
  /// propagating), leaving a plain bit-sliced binary counter.
  void flush_pending();

  /// Bit-sliced comparator: sets bit i of `greater` iff counter_i >
  /// `threshold`, of `less` iff counter_i < `threshold`.  Requires
  /// flush_pending() to have run.
  void compare_counters(std::uint64_t threshold, std::vector<std::uint64_t>& greater,
                        std::vector<std::uint64_t>& less) const;

  std::size_t dimension_;
  std::size_t words_;
  std::size_t count_ = 0;
  std::vector<std::vector<std::uint64_t>> planes_;   ///< committed weight-2^k planes.
  std::vector<std::vector<std::uint64_t>> pending_;  ///< <=1 parked vector per level.
  std::vector<bool> pending_valid_;
  std::vector<std::uint64_t> scratch_;  ///< XOR / carry staging buffer.
  std::vector<std::uint64_t> carry_;    ///< full-adder carry output buffer.
};

}  // namespace graphhd::hdc
