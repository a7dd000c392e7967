#include "hdc/hypervector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "hdc/kernels/kernels.hpp"
#include "hdc/packed.hpp"

namespace graphhd::hdc {

namespace {

void require_same_dimension(std::size_t a, std::size_t b, const char* op) {
  if (a != b) {
    throw std::invalid_argument(std::string(op) + ": dimension mismatch (" +
                                std::to_string(a) + " vs " + std::to_string(b) + ")");
  }
}

}  // namespace

Hypervector::Hypervector(std::size_t dimension) : data_(dimension, std::int8_t{1}) {}

Hypervector::Hypervector(std::vector<std::int8_t> components) : data_(std::move(components)) {
  for (const std::int8_t c : data_) {
    if (c != 1 && c != -1) {
      throw std::invalid_argument("Hypervector: components must be +1 or -1");
    }
  }
}

Hypervector Hypervector::random(std::size_t dimension, Rng& rng) {
  Hypervector hv(dimension);
  // Draw 64 sign bits per RNG call instead of one Bernoulli per component.
  // A set draw bit is +1, so the packed form of this vector is the
  // complement of the draws — the rule GraphHdEncoder derives its basis rows
  // by, which the dense test oracle checks through this function.
  std::size_t i = 0;
  while (i < dimension) {
    std::uint64_t bits = rng();
    const std::size_t chunk = std::min<std::size_t>(64, dimension - i);
    for (std::size_t b = 0; b < chunk; ++b, ++i) {
      hv.data_[i] = (bits & 1u) ? std::int8_t{1} : std::int8_t{-1};
      bits >>= 1;
    }
  }
  return hv;
}

Hypervector Hypervector::with_noise(std::size_t count, Rng& rng) const {
  Hypervector noisy = *this;
  const auto positions = rng.sample_without_replacement(dimension(), count);
  for (const std::size_t p : positions) noisy.flip(p);
  return noisy;
}

std::int64_t Hypervector::dot(const Hypervector& other) const {
  require_same_dimension(dimension(), other.dimension(), "dot");
  return kernels::active().dot_i8(data_.data(), other.data_.data(), data_.size());
}

std::size_t Hypervector::hamming_distance(const Hypervector& other) const {
  require_same_dimension(dimension(), other.dimension(), "hamming_distance");
  return kernels::active().mismatch_i8(data_.data(), other.data_.data(), data_.size());
}

double Hypervector::cosine(const Hypervector& other) const {
  require_same_dimension(dimension(), other.dimension(), "cosine");
  if (data_.empty()) return 0.0;
  return static_cast<double>(dot(other)) / static_cast<double>(dimension());
}

Hypervector Hypervector::bind(const Hypervector& other) const {
  require_same_dimension(dimension(), other.dimension(), "bind");
  Hypervector out(dimension());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = static_cast<std::int8_t>(data_[i] * other.data_[i]);
  }
  return out;
}

BundleAccumulator::BundleAccumulator(std::size_t dimension) : counts_(dimension, 0) {}

BundleAccumulator BundleAccumulator::from_raw(std::vector<std::int32_t> counts,
                                              std::size_t count, bool weight_parity_odd) {
  BundleAccumulator acc;
  acc.counts_ = std::move(counts);
  acc.count_ = count;
  acc.weight_parity_odd_ = weight_parity_odd;
  return acc;
}

void BundleAccumulator::add(const Hypervector& hv, std::int32_t weight) {
  require_same_dimension(counts_.size(), hv.dimension(), "BundleAccumulator::add");
  kernels::active().accumulate_weighted_i8(counts_.data(), hv.components().data(), counts_.size(),
                                           weight);
  ++count_;
  // Every component moves by ±weight, so all counters share one parity.
  if ((weight & 1) != 0) weight_parity_odd_ = !weight_parity_odd_;
}

void BundleAccumulator::add(const PackedHypervector& hv, std::int32_t weight) {
  require_same_dimension(counts_.size(), hv.dimension(), "BundleAccumulator::add");
  kernels::active().accumulate_packed(counts_.data(), hv.words().data(), counts_.size(), weight);
  ++count_;
  if ((weight & 1) != 0) weight_parity_odd_ = !weight_parity_odd_;
}

void BundleAccumulator::merge(const BundleAccumulator& other) {
  require_same_dimension(counts_.size(), other.counts_.size(), "BundleAccumulator::merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  // Total absolute weight adds, so its parity XORs — tie-freedom of the
  // merged bundle equals that of the sequential equivalent.
  weight_parity_odd_ = weight_parity_odd_ != other.weight_parity_odd_;
}

void BundleAccumulator::add_bound(const Hypervector& a, const Hypervector& b) {
  require_same_dimension(counts_.size(), a.dimension(), "BundleAccumulator::add_bound");
  require_same_dimension(counts_.size(), b.dimension(), "BundleAccumulator::add_bound");
  kernels::active().accumulate_bound_i8(counts_.data(), a.components().data(),
                                        b.components().data(), counts_.size());
  ++count_;
  weight_parity_odd_ = !weight_parity_odd_;
}

Hypervector BundleAccumulator::threshold(std::uint64_t tie_break_seed) const {
  std::vector<std::int8_t> out(counts_.size());
  if (weight_parity_odd_) {
    // Odd total weight: no counter can be zero, the tie stream is never
    // consulted — skip generating it (identical result, faster).
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      out[i] = counts_[i] > 0 ? std::int8_t{1} : std::int8_t{-1};
    }
    return Hypervector(std::move(out));
  }
  Rng tie_rng(tie_break_seed);
  // Consume one sign per component (not per tie) so that the result for a
  // given counter vector does not depend on *which* components are tied.
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int tie_sign = tie_rng.next_sign();
    if (counts_[i] > 0) {
      out[i] = 1;
    } else if (counts_[i] < 0) {
      out[i] = -1;
    } else {
      out[i] = static_cast<std::int8_t>(tie_sign);
    }
  }
  return Hypervector(std::move(out));
}

PackedHypervector BundleAccumulator::threshold_packed(std::uint64_t tie_break_seed) const {
  const std::size_t dimension = counts_.size();
  const std::size_t num_words = (dimension + 63) / 64;
  std::vector<std::uint64_t> negative(num_words, 0);
  std::vector<std::uint64_t> zero(num_words, 0);
  kernels::active().threshold_counters(counts_.data(), dimension, negative.data(), zero.data());
  if (weight_parity_odd_) {
    // Odd total weight leaves no zero counter, so threshold() skips the tie
    // stream; a zero restored through from_raw maps to -1 there, and here.
    for (std::size_t w = 0; w < num_words; ++w) negative[w] |= zero[w];
  } else {
    // Zero counters are ties, resolved by the seeded stream with one sign
    // per component, as in threshold().
    const std::vector<std::uint64_t> tie = tie_sign_words(tie_break_seed, dimension);
    for (std::size_t w = 0; w < num_words; ++w) negative[w] |= zero[w] & tie[w];
  }
  return PackedHypervector::from_words(std::move(negative), dimension);
}

double BundleAccumulator::cosine(const Hypervector& hv) const {
  require_same_dimension(counts_.size(), hv.dimension(), "BundleAccumulator::cosine");
  if (counts_.empty()) return 0.0;
  std::int64_t dot = 0;
  std::int64_t norm_sq = 0;
  const auto comps = hv.components();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    dot += static_cast<std::int64_t>(counts_[i]) * comps[i];
    norm_sq += static_cast<std::int64_t>(counts_[i]) * counts_[i];
  }
  if (norm_sq == 0) return 0.0;
  const double denom =
      std::sqrt(static_cast<double>(norm_sq)) * std::sqrt(static_cast<double>(counts_.size()));
  return static_cast<double>(dot) / denom;
}

void BundleAccumulator::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  weight_parity_odd_ = false;
}

Hypervector bundle(std::span<const Hypervector> inputs, std::uint64_t tie_break_seed) {
  if (inputs.empty()) {
    throw std::invalid_argument("bundle: empty input batch");
  }
  BundleAccumulator acc(inputs.front().dimension());
  for (const Hypervector& hv : inputs) acc.add(hv);
  return acc.threshold(tie_break_seed);
}

}  // namespace graphhd::hdc
