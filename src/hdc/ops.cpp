#include "hdc/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace graphhd::hdc {

const char* to_string(Similarity metric) noexcept {
  switch (metric) {
    case Similarity::kCosine:
      return "cosine";
    case Similarity::kInverseHamming:
      return "inverse-hamming";
    case Similarity::kDot:
      return "dot";
  }
  return "unknown";
}

double similarity(const PackedHypervector& a, const PackedHypervector& b, Similarity metric) {
  if (a.dimension() != b.dimension()) {
    throw std::invalid_argument("similarity: dimension mismatch");
  }
  if (a.dimension() == 0) return 0.0;
  return similarity_from_hamming(metric, a.hamming_distance(b), a.dimension());
}

double similarity_from_hamming(Similarity metric, std::size_t hamming, std::size_t dimension) {
  const auto d = static_cast<double>(dimension);
  switch (metric) {
    case Similarity::kCosine:
    case Similarity::kDot:
      // dot == d - 2h on bipolar data; both metrics divide it by d.
      return static_cast<double>(static_cast<std::int64_t>(dimension) -
                                 2 * static_cast<std::int64_t>(hamming)) /
             d;
    case Similarity::kInverseHamming:
      return 1.0 - static_cast<double>(hamming) / d;
  }
  throw std::invalid_argument("similarity_from_hamming: unknown metric");
}

double counter_cosine(std::span<const std::int32_t> counts,
                      const std::uint64_t* query_words) noexcept {
  if (counts.empty()) return 0.0;
  std::int64_t sum = 0;
  std::int64_t negative = 0;
  std::int64_t norm_sq = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::int64_t c = counts[i];
    sum += c;
    norm_sq += c * c;
    if ((query_words[i >> 6] >> (i & 63)) & 1u) negative += c;
  }
  if (norm_sq == 0) return 0.0;
  const double denom =
      std::sqrt(static_cast<double>(norm_sq)) * std::sqrt(static_cast<double>(counts.size()));
  return static_cast<double>(sum - 2 * negative) / denom;
}

}  // namespace graphhd::hdc
