/// \file ops.hpp
/// The similarity metrics δ used for classification (Section III-C of the
/// paper) on packed hypervectors, and the conversions every packed scorer
/// shares: Hamming distance to similarity, and the counter cosine of the
/// non-quantized model.  Binding, bundling and permutation are members of
/// PackedHypervector, BundleAccumulator and BitsliceBundler.

#pragma once

#include <cstdint>
#include <span>

#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Similarity metric δ used at inference time.
enum class Similarity {
  kCosine,          ///< dot / (|a||b|); the paper's default for bipolar vectors.
  kInverseHamming,  ///< 1 - hamming/d, affinely equivalent to cosine on bipolar data.
  kDot,             ///< raw dot product (un-normalized; useful for integer models).
};

[[nodiscard]] const char* to_string(Similarity metric) noexcept;

/// δ(a, b) under the chosen metric: one XOR + popcount pass through the
/// dispatched kernel layer (hdc/kernels).  For bipolar data dot == d - 2h,
/// so every metric reduces to the Hamming distance h; kDot is scaled by 1/d
/// so all metrics share the [-1, 1] range and can be compared in reports.
/// The doubles are bit-identical to the bipolar formulas of the test oracle
/// (tests/support/dense_reference.hpp).
[[nodiscard]] double similarity(const PackedHypervector& a, const PackedHypervector& b,
                                Similarity metric = Similarity::kCosine);

/// Maps one Hamming distance to the metric's similarity double — the
/// post-processing step after a batched one-vs-all distance kernel.  This is
/// *the* conversion site shared by every packed scorer (AssociativeMemory,
/// core::InferenceSnapshot): on bipolar data dot == d - 2h, so cosine and
/// the 1/d-scaled dot are the division dot / d of the paper's bipolar
/// formulas.  Keeping a single definition is what makes "the same doubles
/// on every scoring path" a checkable contract instead of a convention.
[[nodiscard]] double similarity_from_hamming(Similarity metric, std::size_t hamming,
                                             std::size_t dimension);

/// Cosine between a signed counter row and a packed query (bit set = bipolar
/// -1): the score of the counter ("non-quantized") model, shared by
/// AssociativeMemory and core::InferenceSnapshot.  The dot product is
/// Σc − 2·Σ_{bit set} c and ‖c‖² is Σc², both in int64 — the integers the
/// bipolar formula forms on the unpacked query — and the score is
/// dot / (sqrt(‖c‖²) · sqrt(d)).  `query_words` holds ceil(counts.size() /
/// 64) words; an empty or all-zero row scores 0.
[[nodiscard]] double counter_cosine(std::span<const std::int32_t> counts,
                                    const std::uint64_t* query_words) noexcept;

}  // namespace graphhd::hdc
