/// \file kernels_neon.cpp
/// NEON kernels for aarch64, where Advanced SIMD is part of the baseline ISA
/// (no per-file compile flags and no runtime check needed).  On other
/// architectures the getter returns nullptr.
///
/// The word kernels vectorize with vcnt/veor; the strided counter
/// kernels (accumulate_packed, threshold_counters) delegate to the scalar
/// reference — bit-spread into 32-bit lanes does not pay off at 128-bit
/// vector width, and pointing a table slot at the reference is the sanctioned
/// fallback for unvectorized slots (see kernels_ref.hpp).

#include "hdc/kernels/kernels.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include <bit>

#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {
namespace {

bool neon_supported() { return true; }

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    vst1q_u64(out + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const uint8x16_t x = vreinterpretq_u8_u64(veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
    mismatches += vaddlvq_u8(vcntq_u8(x));
  }
  for (; w < n; ++w) {
    mismatches += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return mismatches;
}

void hamming_batch(const std::uint64_t* query, const std::uint64_t* const* rows,
                   std::size_t num_rows, std::size_t n, std::size_t* out) {
  for (std::size_t r = 0; r < num_rows; ++r) out[r] = hamming_words(query, rows[r], n);
}

void full_adder(std::uint64_t* plane, const std::uint64_t* pending, const std::uint64_t* incoming,
                std::uint64_t* carry, std::size_t n) {
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const uint64x2_t s = vld1q_u64(plane + w);
    const uint64x2_t p = vld1q_u64(pending + w);
    const uint64x2_t x = vld1q_u64(incoming + w);
    vst1q_u64(plane + w, veorq_u64(veorq_u64(s, p), x));
    vst1q_u64(carry + w, vorrq_u64(vorrq_u64(vandq_u64(s, p), vandq_u64(s, x)), vandq_u64(p, x)));
  }
  for (; w < n; ++w) {
    const std::uint64_t s = plane[w];
    const std::uint64_t p = pending[w];
    const std::uint64_t x = incoming[w];
    plane[w] = s ^ p ^ x;
    carry[w] = (s & p) | (s & x) | (p & x);
  }
}

const KernelOps kNeonOps = {
    /*name=*/"neon",
    /*priority=*/10,
    /*supported=*/neon_supported,
    /*xor_words=*/xor_words,
    /*hamming_words=*/hamming_words,
    /*hamming_batch=*/hamming_batch,
    /*full_adder=*/full_adder,
    /*accumulate_packed=*/ref::accumulate_packed,
    /*threshold_counters=*/ref::threshold_counters,
};

}  // namespace

const KernelOps* neon_kernels() noexcept { return &kNeonOps; }

}  // namespace graphhd::hdc::kernels

#else  // not aarch64

namespace graphhd::hdc::kernels {

const KernelOps* neon_kernels() noexcept { return nullptr; }

}  // namespace graphhd::hdc::kernels

#endif
