/// \file kernels_ref.hpp
/// Internal: external-linkage declarations of the scalar reference kernels.
///
/// SIMD variant translation units point not-yet-vectorized table slots (and
/// nothing else) at these, so every slot of every variant has a definition
/// without duplicating the reference loops.  The definitions live in
/// kernels_scalar.cpp, which is always compiled with baseline ISA flags —
/// pointing a variant slot here can therefore never smuggle wider
/// instructions into a narrower dispatch table.

#pragma once

#include <cstddef>
#include <cstdint>

namespace graphhd::hdc::kernels::ref {

void xor_words(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
void hamming_batch(const std::uint64_t* query, const std::uint64_t* const* rows,
                   std::size_t num_rows, std::size_t n, std::size_t* out);
void full_adder(std::uint64_t* plane, const std::uint64_t* pending, const std::uint64_t* incoming,
                std::uint64_t* carry, std::size_t n);
void accumulate_packed(std::int32_t* counts, const std::uint64_t* bits, std::size_t dimension,
                       std::int32_t weight);
void threshold_counters(const std::int32_t* counts, std::size_t dimension, std::uint64_t* negative,
                        std::uint64_t* zero);

}  // namespace graphhd::hdc::kernels::ref
