#include "hdc/ops.hpp"

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

double similarity(const Hypervector& a, const Hypervector& b, Similarity metric) {
  switch (metric) {
    case Similarity::kCosine:
      return a.cosine(b);
    case Similarity::kInverseHamming: {
      if (a.dimension() == 0) return 0.0;
      return 1.0 - static_cast<double>(a.hamming_distance(b)) /
                       static_cast<double>(a.dimension());
    }
    case Similarity::kDot: {
      if (a.dimension() == 0) return 0.0;
      return static_cast<double>(a.dot(b)) / static_cast<double>(a.dimension());
    }
  }
  throw std::invalid_argument("similarity: unknown metric");
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

Hypervector bind(const Hypervector& a, const Hypervector& b) { return a.bind(b); }

Hypervector permute(const Hypervector& a, std::ptrdiff_t shift) { return a.permute(shift); }

}  // namespace graphhd::hdc
