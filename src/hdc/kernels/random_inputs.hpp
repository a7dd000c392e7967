/// \file random_inputs.hpp
/// Shared random input domain for the kernel equivalence harnesses — the
/// single source of truth used by both tests/test_kernels.cpp and
/// bench/micro_kernels.cpp, so the unit tests and the CI bench gate always
/// verify the same domain.  It delegates to the library's own random
/// constructor, which establishes the masked-tail invariant the kernels rely
/// on.

#pragma once

#include <cstdint>
#include <vector>

#include "hdc/packed.hpp"
#include "hdc/random.hpp"

namespace graphhd::hdc::kernels {

/// ceil(dimension/64) random words with the tail bits beyond `dimension`
/// masked to zero (the PackedHypervector class invariant).
inline std::vector<std::uint64_t> random_words(std::size_t dimension, Rng& rng) {
  const auto hv = PackedHypervector::random(dimension, rng);
  return {hv.words().begin(), hv.words().end()};
}

}  // namespace graphhd::hdc::kernels
