/// \file kernels_avx512.cpp
/// AVX-512 kernels (F + BW + VPOPCNTDQ).  Compiled with per-file
/// -mavx512f/-mavx512bw/-mavx512vpopcntdq flags when the compiler supports
/// them (see CMakeLists.txt); the getter returns nullptr otherwise.  Runtime
/// availability — including OS zmm state — is gated by supported() through
/// __builtin_cpu_supports, which consults XGETBV.
///
/// The interesting wins over AVX2: native 64-bit lane popcount
/// (VPOPCNTDQ), three-input bit logic in one instruction (vpternlogq for
/// the full adder), and comparisons that produce packed mask bits directly
/// (the counter-threshold kernel writes its output word straight from four
/// __mmask16 registers).

#include "hdc/kernels/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {
namespace {

bool avx512_supported() {
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

/// Horizontal sum of eight 64-bit lanes.  Spelled as store + scalar adds
/// instead of _mm512_reduce_add_epi64: GCC 12's implementation of the
/// reduce intrinsics trips -Wmaybe-uninitialized (PR 105593) under -Werror.
inline std::uint64_t horizontal_sum(__m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] + lanes[6] + lanes[7];
}

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    _mm512_storeu_si512(out + w, _mm512_xor_si512(va, vb));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  std::size_t mismatches = static_cast<std::size_t>(horizontal_sum(acc));
  for (; w < n; ++w) {
    mismatches += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return mismatches;
}

void hamming_batch(const std::uint64_t* query, const std::uint64_t* const* rows,
                   std::size_t num_rows, std::size_t n, std::size_t* out) {
  std::size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const std::uint64_t* row0 = rows[r];
    const std::uint64_t* row1 = rows[r + 1];
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
      const __m512i q = _mm512_loadu_si512(query + w);
      acc0 = _mm512_add_epi64(
          acc0, _mm512_popcnt_epi64(_mm512_xor_si512(q, _mm512_loadu_si512(row0 + w))));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(_mm512_xor_si512(q, _mm512_loadu_si512(row1 + w))));
    }
    std::size_t h0 = static_cast<std::size_t>(horizontal_sum(acc0));
    std::size_t h1 = static_cast<std::size_t>(horizontal_sum(acc1));
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
  for (; w + 8 <= n; w += 8) {
    const __m512i s = _mm512_loadu_si512(plane + w);
    const __m512i p = _mm512_loadu_si512(pending + w);
    const __m512i x = _mm512_loadu_si512(incoming + w);
    // Truth-table immediates: 0x96 = a ^ b ^ c, 0xE8 = majority(a, b, c).
    _mm512_storeu_si512(plane + w, _mm512_ternarylogic_epi64(s, p, x, 0x96));
    _mm512_storeu_si512(carry + w, _mm512_ternarylogic_epi64(s, p, x, 0xE8));
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
  const __m512i vpos = _mm512_set1_epi32(weight);
  const __m512i vneg = _mm512_set1_epi32(-weight);
  for (std::size_t word = 0; word < full_words; ++word) {
    const std::uint64_t w = bits[word];
    std::int32_t* base = counts + word * 64;
    for (std::size_t block = 0; block < 4; ++block) {
      const __mmask16 mask = static_cast<__mmask16>((w >> (block * 16)) & 0xffff);
      std::int32_t* dst = base + block * 16;
      const __m512i cur = _mm512_loadu_si512(dst);
      const __m512i delta = _mm512_mask_blend_epi32(mask, vpos, vneg);
      _mm512_storeu_si512(dst, _mm512_add_epi32(cur, delta));
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
  const __m512i vzero = _mm512_setzero_si512();
  for (std::size_t word = 0; word < full_words; ++word) {
    std::uint64_t neg_word = 0;
    std::uint64_t zero_word = 0;
    const std::int32_t* base = counts + word * 64;
    for (std::size_t block = 0; block < 4; ++block) {
      const __m512i v = _mm512_loadu_si512(base + block * 16);
      neg_word |= static_cast<std::uint64_t>(_mm512_cmplt_epi32_mask(v, vzero)) << (block * 16);
      if (zero != nullptr) {
        zero_word |= static_cast<std::uint64_t>(_mm512_cmpeq_epi32_mask(v, vzero)) << (block * 16);
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

const KernelOps kAvx512Ops = {
    /*name=*/"avx512",
    /*priority=*/30,
    /*supported=*/avx512_supported,
    /*xor_words=*/xor_words,
    /*hamming_words=*/hamming_words,
    /*hamming_batch=*/hamming_batch,
    /*full_adder=*/full_adder,
    /*accumulate_packed=*/accumulate_packed,
    /*threshold_counters=*/threshold_counters,
};

}  // namespace

const KernelOps* avx512_kernels() noexcept { return &kAvx512Ops; }

}  // namespace graphhd::hdc::kernels

#else  // missing AVX-512 compile support

namespace graphhd::hdc::kernels {

const KernelOps* avx512_kernels() noexcept { return nullptr; }

}  // namespace graphhd::hdc::kernels

#endif
