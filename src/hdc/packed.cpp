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
  for (std::size_t i = 0; i < hv.dimension(); ++i) {
    if (hv[i] == -1) packed.words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
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

void PackedHypervector::set_bit_unchecked(std::size_t i, bool value) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (value) {
    words_[i >> 6] |= mask;
  } else {
    words_[i >> 6] &= ~mask;
  }
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

PackedHypervector PackedHypervector::permute(std::ptrdiff_t shift) const {
  if (dimension_ == 0) return *this;
  PackedHypervector out(dimension_);
  const auto d = static_cast<std::ptrdiff_t>(dimension_);
  std::ptrdiff_t offset = shift % d;
  if (offset < 0) offset += d;
  for (std::size_t i = 0; i < dimension_; ++i) {
    const std::size_t target = (i + static_cast<std::size_t>(offset)) % dimension_;
    if (bit_unchecked(i)) out.set_bit_unchecked(target, true);
  }
  return out;
}

void PackedHypervector::mask_tail() noexcept {
  const std::size_t tail_bits = dimension_ & 63;
  if (tail_bits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail_bits) - 1;
  }
}

}  // namespace graphhd::hdc
