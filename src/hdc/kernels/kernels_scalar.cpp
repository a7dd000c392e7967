/// \file kernels_scalar.cpp
/// Scalar reference kernels — the semantics every SIMD variant must match
/// bit for bit.  Plain loops over baseline ISA: std::popcount compiles to
/// whatever the base target offers (SWAR on plain x86-64), which is exactly
/// the PR-2 packed-backend code path these kernels replace.

#include <bit>

#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/kernels_ref.hpp"

namespace graphhd::hdc::kernels {

namespace ref {

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) out[w] = a[w] ^ b[w];
}

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t mismatches = 0;
  for (std::size_t w = 0; w < n; ++w) {
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
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t s = plane[w];
    const std::uint64_t p = pending[w];
    const std::uint64_t x = incoming[w];
    plane[w] = s ^ p ^ x;
    carry[w] = (s & p) | (s & x) | (p & x);
  }
}

void accumulate_packed(std::int32_t* counts, const std::uint64_t* bits, std::size_t dimension,
                       std::int32_t weight) {
  for (std::size_t i = 0; i < dimension; ++i) {
    const bool bit = (bits[i >> 6] >> (i & 63)) & 1u;
    counts[i] += bit ? -weight : weight;
  }
}

void threshold_counters(const std::int32_t* counts, std::size_t dimension, std::uint64_t* negative,
                        std::uint64_t* zero) {
  for (std::size_t i = 0; i < dimension; ++i) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (counts[i] < 0) negative[i >> 6] |= mask;
    if (zero != nullptr && counts[i] == 0) zero[i >> 6] |= mask;
  }
}

}  // namespace ref

namespace {

bool always_supported() { return true; }

const KernelOps kScalarOps = {
    /*name=*/"scalar",
    /*priority=*/0,
    /*supported=*/always_supported,
    /*xor_words=*/ref::xor_words,
    /*hamming_words=*/ref::hamming_words,
    /*hamming_batch=*/ref::hamming_batch,
    /*full_adder=*/ref::full_adder,
    /*accumulate_packed=*/ref::accumulate_packed,
    /*threshold_counters=*/ref::threshold_counters,
};

}  // namespace

const KernelOps* scalar_kernels() noexcept { return &kScalarOps; }

}  // namespace graphhd::hdc::kernels
