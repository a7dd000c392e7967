#include "hdc/bitslice.hpp"

#include <stdexcept>
#include <string>

#include "hdc/kernels/kernels.hpp"

namespace graphhd::hdc {

namespace {

[[nodiscard]] std::size_t words_for(std::size_t dimension) noexcept {
  return (dimension + 63) / 64;
}

}  // namespace

BitsliceBundler::BitsliceBundler(std::size_t dimension)
    : dimension_(dimension),
      words_(words_for(dimension)),
      scratch_(words_, 0),
      carry_(words_, 0) {
  if (dimension == 0) {
    throw std::invalid_argument("BitsliceBundler: dimension must be positive");
  }
}

void BitsliceBundler::add_bound(const PackedHypervector& a, const PackedHypervector& b) {
  if (a.dimension() != dimension_ || b.dimension() != dimension_) {
    throw std::invalid_argument("BitsliceBundler::add_bound: dimension mismatch");
  }
  kernels::active().xor_words(scratch_.data(), a.words().data(), b.words().data(), words_);
  add_staged();
}

void BitsliceBundler::add(const PackedHypervector& hv) {
  if (hv.dimension() != dimension_) {
    throw std::invalid_argument("BitsliceBundler::add: dimension mismatch");
  }
  const auto words = hv.words();
  for (std::size_t w = 0; w < words_; ++w) scratch_[w] = words[w];
  add_staged();
}

void BitsliceBundler::add_staged() {
  // Lazy carry-save accumulation (Harley-Seal style): level k keeps one
  // committed plane (weight 2^k of the final count) and at most one pending
  // vector of the same weight.  Inserting at level k either parks the vector
  // as pending (a buffer swap) or performs one full-adder step over the
  // triple (plane, pending, incoming) and recurses with the carry — so
  // level k is touched only once every 2^k adds, amortized O(words) per add.
  //
  // Invariant: the incoming vector always lives in scratch_ — add() and
  // add_bound() stage into it, and each full-adder step swaps the carry
  // buffer back into it.
  for (std::size_t level = 0;; ++level) {
    if (level >= planes_.size()) {
      planes_.emplace_back(words_, 0);
      pending_.emplace_back(words_, 0);
      pending_valid_.push_back(false);
    }
    if (!pending_valid_[level]) {
      pending_[level].swap(scratch_);
      pending_valid_[level] = true;
      break;
    }
    // Full adder: plane' = s ^ p ^ x (weight 2^k), carry = maj(s, p, x)
    // (weight 2^{k+1}) — one kernel call per touched level.
    kernels::active().full_adder(planes_[level].data(), pending_[level].data(), scratch_.data(),
                                 carry_.data(), words_);
    pending_valid_[level] = false;
    // The carry becomes the next level's incoming vector (kept in scratch_).
    scratch_.swap(carry_);
  }
  ++count_;
}

void BitsliceBundler::flush_pending() {
  for (std::size_t level = 0; level < pending_valid_.size(); ++level) {
    if (!pending_valid_[level]) continue;
    pending_valid_[level] = false;
    // Half-adder ripple: add the pending vector (weight 2^level) into the
    // committed planes, propagating the carry upward.
    std::uint64_t* carry = scratch_.data();
    const std::uint64_t* pend = pending_[level].data();
    for (std::size_t w = 0; w < words_; ++w) carry[w] = pend[w];
    for (std::size_t k = level;; ++k) {
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < words_; ++w) any |= carry[w];
      if (any == 0) break;
      if (k == planes_.size()) {
        planes_.emplace_back(words_, 0);
        pending_.emplace_back(words_, 0);
        pending_valid_.push_back(false);
      }
      std::uint64_t* plane = planes_[k].data();
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t p = plane[w];
        plane[w] = p ^ carry[w];
        carry[w] = p & carry[w];
      }
    }
  }
}

void BitsliceBundler::compare_counters(std::uint64_t threshold,
                                       std::vector<std::uint64_t>& greater,
                                       std::vector<std::uint64_t>& less) const {
  greater.assign(words_, 0);
  less.assign(words_, 0);
  std::size_t levels = planes_.size();
  while (levels < 64 && (threshold >> levels) != 0) ++levels;
  // MSB-first: the first level at which the counter bit differs from the
  // threshold bit decides the comparison for that component.
  for (std::size_t level_plus = levels; level_plus > 0; --level_plus) {
    const std::size_t level = level_plus - 1;
    const std::uint64_t threshold_bit =
        ((threshold >> level) & 1u) ? ~std::uint64_t{0} : std::uint64_t{0};
    const std::uint64_t* plane = level < planes_.size() ? planes_[level].data() : nullptr;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t count_bit = plane != nullptr ? plane[w] : 0;
      const std::uint64_t undecided = ~(greater[w] | less[w]);
      greater[w] |= undecided & count_bit & ~threshold_bit;
      less[w] |= undecided & ~count_bit & threshold_bit;
    }
  }
}

std::vector<std::uint32_t> BitsliceBundler::negative_counts() {
  flush_pending();
  std::vector<std::uint32_t> counts(dimension_, 0);
  for (std::size_t level = 0; level < planes_.size(); ++level) {
    const auto& plane = planes_[level];
    for (std::size_t i = 0; i < dimension_; ++i) {
      counts[i] += static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1u) << level;
    }
  }
  return counts;
}

PackedHypervector BitsliceBundler::threshold_packed(std::span<const std::uint64_t> tie_words) {
  flush_pending();
  std::vector<std::uint64_t> greater, less;
  compare_counters(count_ / 2, greater, less);

  if ((count_ & 1u) != 0) {
    // Odd count: ties are impossible and the strict-majority mask *is* the
    // packed result (bit set == component -1).  Tail bits of `greater` are
    // clear because the planes never carry data past the dimension.
    return PackedHypervector::from_words(std::move(greater), dimension_);
  }

  // Even count: tie components (neither greater nor less) take the seeded
  // stream, one draw per component as in BundleAccumulator::threshold_packed —
  // applied at the word level with the caller's tie_sign_words (from_words
  // masks the undecided tail slack).
  if (tie_words.size() != words_) {
    throw std::invalid_argument("BitsliceBundler::threshold_packed: " +
                                std::to_string(tie_words.size()) + " tie words for dimension " +
                                std::to_string(dimension_));
  }
  for (std::size_t w = 0; w < words_; ++w) {
    greater[w] |= ~(greater[w] | less[w]) & tie_words[w];
  }
  return PackedHypervector::from_words(std::move(greater), dimension_);
}

void BitsliceBundler::clear() noexcept {
  planes_.clear();
  pending_.clear();
  pending_valid_.clear();
  count_ = 0;
}

}  // namespace graphhd::hdc
