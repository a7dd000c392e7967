/// \file ops.hpp
/// Free-function facade over the three fundamental HDC operations —
/// binding (×), bundling (+ with majority normalization) and permutation —
/// plus the similarity metrics used for classification.
///
/// Section III of the paper describes the classical HDC model in terms of
/// these operations; the member functions on Hypervector/PackedHypervector
/// do the work, and this header gives call sites the notation of the paper.

#pragma once

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

/// Permutation: cyclic shift, `permute(a, k) == a.permute(k)`.
[[nodiscard]] Hypervector permute(const Hypervector& a, std::ptrdiff_t shift);

}  // namespace graphhd::hdc
