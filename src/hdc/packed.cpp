#include "hdc/packed.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc {

namespace {

void require_same_dimension(std::size_t a, std::size_t b, const char* op) {
  if (a != b) {
    throw std::invalid_argument(std::string(op) + ": dimension mismatch (" +
                                std::to_string(a) + " vs " + std::to_string(b) + ")");
  }
}

[[nodiscard]] std::size_t words_for(std::size_t dimension) noexcept {
  return (dimension + 63) / 64;
}

/// out |= in shifted toward higher bit indices by `bits`; bits shifted past
/// the last word are dropped.  `out` and `in` have the same word count.
void or_shifted_up(std::vector<std::uint64_t>& out, std::span<const std::uint64_t> in,
                   std::size_t bits) {
  const std::size_t words = bits / 64;
  const std::size_t rest = bits % 64;
  for (std::size_t w = words; w < out.size(); ++w) {
    std::uint64_t word = in[w - words] << rest;
    if (rest != 0 && w > words) word |= in[w - words - 1] >> (64 - rest);
    out[w] |= word;
  }
}

/// out |= in shifted toward lower bit indices by `bits`; bits shifted below
/// bit 0 are dropped.  `out` and `in` have the same word count.
void or_shifted_down(std::vector<std::uint64_t>& out, std::span<const std::uint64_t> in,
                     std::size_t bits) {
  const std::size_t words = bits / 64;
  const std::size_t rest = bits % 64;
  for (std::size_t w = 0; w + words < in.size(); ++w) {
    std::uint64_t word = in[w + words] >> rest;
    if (rest != 0 && w + words + 1 < in.size()) word |= in[w + words + 1] << (64 - rest);
    out[w] |= word;
  }
}

}  // namespace

PackedHypervector::PackedHypervector(std::size_t dimension)
    : words_(words_for(dimension), 0), dimension_(dimension) {}

PackedHypervector PackedHypervector::random(std::size_t dimension, Rng& rng) {
  PackedHypervector hv(dimension);
  for (auto& word : hv.words_) word = rng();
  hv.mask_tail();
  return hv;
}

PackedHypervector PackedHypervector::from_bipolar(const Hypervector& hv) {
  PackedHypervector packed(hv.dimension());
  const auto comps = hv.components();
  // Word by word: component 64w + b sets bit b of word w when it is -1.
  for (std::size_t w = 0; w < packed.words_.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t bits = std::min<std::size_t>(64, comps.size() - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      word |= static_cast<std::uint64_t>(comps[base + b] == -1) << b;
    }
    packed.words_[w] = word;
  }
  return packed;
}

PackedHypervector PackedHypervector::from_words(std::vector<std::uint64_t> words,
                                                std::size_t dimension) {
  if (words.size() != words_for(dimension)) {
    throw std::invalid_argument("PackedHypervector::from_words: " + std::to_string(words.size()) +
                                " words cannot hold dimension " + std::to_string(dimension));
  }
  PackedHypervector packed;
  packed.words_ = std::move(words);
  packed.dimension_ = dimension;
  packed.mask_tail();
  return packed;
}

Hypervector PackedHypervector::to_bipolar() const {
  std::vector<std::int8_t> comps(dimension_);
  // Word by word: bit b of word w becomes component 64w + b, 1 - 2 * bit.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t word = words_[w];
    const std::size_t base = w * 64;
    const std::size_t bits = std::min<std::size_t>(64, dimension_ - base);
    for (std::size_t b = 0; b < bits; ++b) {
      comps[base + b] = static_cast<std::int8_t>(1 - 2 * static_cast<int>((word >> b) & 1u));
    }
  }
  return Hypervector(std::move(comps));
}

void PackedHypervector::throw_index_error(const char* op, std::size_t i) const {
  throw std::out_of_range("PackedHypervector::" + std::string(op) + ": index " +
                          std::to_string(i) + " out of range for dimension " +
                          std::to_string(dimension_));
}

PackedHypervector PackedHypervector::bind(const PackedHypervector& other) const {
  require_same_dimension(dimension_, other.dimension_, "PackedHypervector::bind");
  PackedHypervector out(dimension_);
  kernels::active().xor_words(out.words_.data(), words_.data(), other.words_.data(),
                              words_.size());
  return out;
}

std::size_t PackedHypervector::hamming_distance(const PackedHypervector& other) const {
  require_same_dimension(dimension_, other.dimension_, "PackedHypervector::hamming_distance");
  return kernels::active().hamming_words(words_.data(), other.words_.data(), words_.size());
}

double PackedHypervector::similarity(const PackedHypervector& other) const {
  if (dimension_ == 0) return 0.0;
  const double h = static_cast<double>(hamming_distance(other));
  return 1.0 - 2.0 * h / static_cast<double>(dimension_);
}

PackedHypervector PackedHypervector::with_noise(std::size_t count, Rng& rng) const {
  PackedHypervector noisy = *this;
  for (const std::size_t i : rng.sample_without_replacement(dimension_, count)) {
    noisy.words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }
  return noisy;
}

PackedHypervector PackedHypervector::permute(std::ptrdiff_t shift) const {
  if (dimension_ == 0) return *this;
  const auto d = static_cast<std::ptrdiff_t>(dimension_);
  std::ptrdiff_t offset = shift % d;
  if (offset < 0) offset += d;
  if (offset == 0) return *this;
  // A left rotation of the d-bit number: bits [0, d - k) move up by k and
  // bits [d - k, d) wrap down to [0, k).  Both are whole-word shifts; the
  // up-shift spills the wrapped bits into the tail slack, which mask_tail
  // clears (the input's slack is zero, so the down-shift brings none in).
  const auto k = static_cast<std::size_t>(offset);
  PackedHypervector out(dimension_);
  or_shifted_up(out.words_, words_, k);
  or_shifted_down(out.words_, words_, dimension_ - k);
  out.mask_tail();
  return out;
}

void PackedHypervector::mask_tail() noexcept {
  const std::size_t tail_bits = dimension_ & 63;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail_bits) - 1;
  }
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

void BundleAccumulator::add(const PackedHypervector& hv, std::int32_t weight) {
  require_same_dimension(counts_.size(), hv.dimension(), "BundleAccumulator::add");
  kernels::active().accumulate_packed(counts_.data(), hv.words().data(), counts_.size(), weight);
  ++count_;
  // Every component moves by ±weight, so all counters share one parity.
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

PackedHypervector BundleAccumulator::threshold_packed(std::uint64_t tie_break_seed) const {
  const std::size_t dimension = counts_.size();
  const std::size_t num_words = words_for(dimension);
  std::vector<std::uint64_t> negative(num_words, 0);
  std::vector<std::uint64_t> zero(num_words, 0);
  kernels::active().threshold_counters(counts_.data(), dimension, negative.data(), zero.data());
  if (weight_parity_odd_) {
    // Odd total weight leaves no zero counter, so the tie stream is skipped;
    // a zero restored through from_raw maps to a set bit (bipolar -1).
    for (std::size_t w = 0; w < num_words; ++w) negative[w] |= zero[w];
  } else {
    // Zero counters are ties, resolved by the seeded stream with one sign
    // per component.
    const std::vector<std::uint64_t> tie = tie_sign_words(tie_break_seed, dimension);
    for (std::size_t w = 0; w < num_words; ++w) negative[w] |= zero[w] & tie[w];
  }
  return PackedHypervector::from_words(std::move(negative), dimension);
}

void BundleAccumulator::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  weight_parity_odd_ = false;
}

}  // namespace graphhd::hdc
