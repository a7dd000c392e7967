/// \file ops.hpp
/// Free-function facade over the three fundamental HDC operations —
/// binding (×), bundling (+ with majority normalization) and permutation —
/// plus the similarity metrics used for classification.
///
/// Section III of the paper describes the classical HDC model in terms of
/// these operations; the member functions on Hypervector/PackedHypervector
/// do the work, and this header gives call sites the notation of the paper.

#pragma once

#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Similarity metric δ used at inference time.
enum class Similarity {
  kCosine,          ///< dot / (|a||b|); the paper's default for bipolar vectors.
  kInverseHamming,  ///< 1 - hamming/d, affinely equivalent to cosine on bipolar data.
  kDot,             ///< raw dot product (un-normalized; useful for integer models).
};

[[nodiscard]] const char* to_string(Similarity metric) noexcept;

/// δ(a, b) under the chosen metric.  kDot is scaled by 1/d so all metrics
/// share the [-1, 1] range and can be compared in reports.
[[nodiscard]] double similarity(const Hypervector& a, const Hypervector& b,
                                Similarity metric = Similarity::kCosine);

/// Packed counterpart of similarity(): one XOR + popcount pass through the
/// dispatched kernel layer (hdc/kernels).  For bipolar data dot == d - 2h,
/// so every metric reduces to the Hamming distance h; the doubles returned
/// are bit-identical to the dense overload on the corresponding bipolar
/// vectors.
[[nodiscard]] double similarity(const PackedHypervector& a, const PackedHypervector& b,
                                Similarity metric = Similarity::kCosine);

/// Maps one Hamming distance to the metric's similarity double — the
/// post-processing step after a batched one-vs-all distance kernel.  This is
/// *the* conversion site shared by every packed scorer (AssociativeMemory,
/// core::InferenceSnapshot): on bipolar data dot == d - 2h, so cosine and
/// the 1/d-scaled dot are the same division the dense quantized path
/// performs, and inverse Hamming shares its expression with similarity().
/// Keeping a single definition is what makes "bit-identical doubles across
/// representations" a checkable contract instead of a convention.
[[nodiscard]] double similarity_from_hamming(Similarity metric, std::size_t hamming,
                                             std::size_t dimension);

/// Binding: element-wise multiplication.  `bind(a, b) == a.bind(b)`.
[[nodiscard]] Hypervector bind(const Hypervector& a, const Hypervector& b);

/// n-ary binding fold: bind(v0, v1, ..., vk).  Requires non-empty input.
[[nodiscard]] Hypervector bind_all(std::span<const Hypervector> inputs);

/// Permutation: cyclic shift, `permute(a, k) == a.permute(k)`.
[[nodiscard]] Hypervector permute(const Hypervector& a, std::ptrdiff_t shift);

/// Record-based encoding (Section III-A of the paper): bundles key-value
/// bindings `[K1×V1 + K2×V2 + ... + KN×VN]`.  Keys and values must have the
/// same length and uniform dimension.
[[nodiscard]] Hypervector encode_record(std::span<const Hypervector> keys,
                                        std::span<const Hypervector> values,
                                        std::uint64_t tie_break_seed = kMajorityTieSeed);

/// Sequence encoding via permute-and-bind: ρ^{n-1}(s1) × ... × ρ(s_{n-1}) × s_n.
/// Not used by GraphHD itself but part of the standard HDC toolbox; exercised
/// by tests and available to downstream users.
[[nodiscard]] Hypervector encode_sequence(std::span<const Hypervector> items);

}  // namespace graphhd::hdc
