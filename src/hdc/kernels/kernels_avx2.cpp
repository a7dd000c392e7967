/// \file kernels_avx2.cpp
/// AVX2 kernels.  Compiled with -mavx2 when the compiler supports it (see
/// CMakeLists.txt — only this translation unit gets the flag, so the rest of
/// the library stays baseline-ISA); otherwise the getter returns nullptr and
/// the variant simply does not exist.  Runtime availability is gated by
/// supported(), checked once at dispatch selection.
///
/// All kernels are pure integer code and bit-identical to the scalar
/// reference (tails fall back to short scalar loops).

#include "hdc/kernels/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {
namespace {

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), _mm256_xor_si256(va, vb));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

/// Muła nibble-LUT popcount of one 256-bit lane, as per-byte counts.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                          0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi));
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i counts = popcount_bytes(_mm256_xor_si256(va, vb));
    // Horizontal byte sums into four 64-bit lanes; at most 8 bits per byte *
    // 8 bytes per lane per iteration, so the accumulator cannot overflow for
    // any realistic word count.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t mismatches =
      static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; w < n; ++w) {
    mismatches += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return mismatches;
}

void hamming_batch(const std::uint64_t* query, const std::uint64_t* const* rows,
                   std::size_t num_rows, std::size_t n, std::size_t* out) {
  // Two rows per pass share the query loads and double the popcount ILP; the
  // odd row falls through to the single-row kernel.
  std::size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const std::uint64_t* row0 = rows[r];
    const std::uint64_t* row1 = rows[r + 1];
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
      const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + w));
      const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row0 + w));
      const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row1 + w));
      acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(popcount_bytes(_mm256_xor_si256(q, v0)),
                                                    _mm256_setzero_si256()));
      acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(popcount_bytes(_mm256_xor_si256(q, v1)),
                                                    _mm256_setzero_si256()));
    }
    alignas(32) std::uint64_t lanes0[4];
    alignas(32) std::uint64_t lanes1[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes0), acc0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes1), acc1);
    std::size_t h0 = static_cast<std::size_t>(lanes0[0] + lanes0[1] + lanes0[2] + lanes0[3]);
    std::size_t h1 = static_cast<std::size_t>(lanes1[0] + lanes1[1] + lanes1[2] + lanes1[3]);
    for (; w < n; ++w) {
      h0 += static_cast<std::size_t>(std::popcount(query[w] ^ row0[w]));
      h1 += static_cast<std::size_t>(std::popcount(query[w] ^ row1[w]));
    }
    out[r] = h0;
    out[r + 1] = h1;
  }
  for (; r < num_rows; ++r) out[r] = hamming_words(query, rows[r], n);
}

void full_adder(std::uint64_t* plane, const std::uint64_t* pending, const std::uint64_t* incoming,
                std::uint64_t* carry, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + w));
    const __m256i p = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pending + w));
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(incoming + w));
    const __m256i sum = _mm256_xor_si256(_mm256_xor_si256(s, p), x);
    const __m256i maj = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(s, p), _mm256_and_si256(s, x)), _mm256_and_si256(p, x));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(plane + w), sum);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(carry + w), maj);
  }
  for (; w < n; ++w) {
    const std::uint64_t s = plane[w];
    const std::uint64_t p = pending[w];
    const std::uint64_t x = incoming[w];
    plane[w] = s ^ p ^ x;
    carry[w] = (s & p) | (s & x) | (p & x);
  }
}

void accumulate_packed(std::int32_t* counts, const std::uint64_t* bits, std::size_t dimension,
                       std::int32_t weight) {
  const std::size_t full_words = dimension / 64;
  const __m256i bitpos = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i vweight = _mm256_set1_epi32(weight);
  for (std::size_t word = 0; word < full_words; ++word) {
    const std::uint64_t w = bits[word];
    std::int32_t* base = counts + word * 64;
    for (std::size_t byte = 0; byte < 8; ++byte) {
      const __m256i spread = _mm256_set1_epi32(static_cast<std::int32_t>((w >> (byte * 8)) & 0xff));
      // All-ones lanes where the component bit is set (bipolar -1).
      const __m256i mask = _mm256_cmpeq_epi32(_mm256_and_si256(spread, bitpos), bitpos);
      // (weight ^ mask) - mask == -weight where mask is all-ones, +weight
      // where it is zero — two's complement negation by mask.
      const __m256i delta = _mm256_sub_epi32(_mm256_xor_si256(vweight, mask), mask);
      std::int32_t* dst = base + byte * 8;
      const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_add_epi32(cur, delta));
    }
  }
  for (std::size_t i = full_words * 64; i < dimension; ++i) {
    const bool bit = (bits[i >> 6] >> (i & 63)) & 1u;
    counts[i] += bit ? -weight : weight;
  }
}

void threshold_counters(const std::int32_t* counts, std::size_t dimension, std::uint64_t* negative,
                        std::uint64_t* zero) {
  const std::size_t full_words = dimension / 64;
  const __m256i vzero = _mm256_setzero_si256();
  for (std::size_t word = 0; word < full_words; ++word) {
    std::uint64_t neg_word = 0;
    std::uint64_t zero_word = 0;
    const std::int32_t* base = counts + word * 64;
    for (std::size_t block = 0; block < 8; ++block) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + block * 8));
      const std::uint32_t neg_bits = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vzero, v))));
      neg_word |= static_cast<std::uint64_t>(neg_bits) << (block * 8);
      if (zero != nullptr) {
        const std::uint32_t zero_bits = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vzero))));
        zero_word |= static_cast<std::uint64_t>(zero_bits) << (block * 8);
      }
    }
    negative[word] |= neg_word;
    if (zero != nullptr) zero[word] |= zero_word;
  }
  if (full_words * 64 < dimension) {
    ref::threshold_counters(counts + full_words * 64, dimension - full_words * 64,
                            negative + full_words, zero != nullptr ? zero + full_words : nullptr);
  }
}

const KernelOps kAvx2Ops = {
    /*name=*/"avx2",
    /*priority=*/20,
    /*supported=*/avx2_supported,
    /*xor_words=*/xor_words,
    /*hamming_words=*/hamming_words,
    /*hamming_batch=*/hamming_batch,
    /*full_adder=*/full_adder,
    /*accumulate_packed=*/accumulate_packed,
    /*threshold_counters=*/threshold_counters,
};

}  // namespace

const KernelOps* avx2_kernels() noexcept { return &kAvx2Ops; }

}  // namespace graphhd::hdc::kernels

#else  // !defined(__AVX2__)

namespace graphhd::hdc::kernels {

const KernelOps* avx2_kernels() noexcept { return nullptr; }

}  // namespace graphhd::hdc::kernels

#endif
