#include "hdc/random.hpp"

#include <algorithm>
#include <cmath>

namespace graphhd::hdc {

namespace {

constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += kSplitmixGamma;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t state = seed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  (void)splitmix64_next(state);
  return splitmix64_next(state);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) noexcept {
  return derive_seed(seed, fnv1a({reinterpret_cast<const std::uint8_t*>(label.data()),
                                  label.size()}));
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // the FNV-1a 64 offset basis and prime.
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // xoshiro256** breaks on the all-zero state; splitmix64 cannot produce four
  // consecutive zeros, but guard anyway for safety under future edits.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = kSplitmixGamma;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.  The 128-bit
  // product is a GCC/Clang extension; __extension__ keeps it legal under
  // -Wpedantic -Werror (the CI warnings gate).
  __extension__ using Uint128 = unsigned __int128;
  std::uint64_t x = (*this)();
  Uint128 m = static_cast<Uint128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<Uint128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(range == 0 ? (*this)() : next_below(range));
}

double Rng::next_double() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = next_double(-1.0, 1.0);
    v = next_double(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  return Rng(derive_seed(seed_, stream));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) noexcept {
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  if (k >= n) {
    shuffle(indices);
    return indices;
  }
  // Partial Fisher-Yates: shuffle only the first k positions.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    using std::swap;
    swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

std::vector<std::uint64_t> tie_sign_words(std::uint64_t seed, std::size_t dimension) {
  std::vector<std::uint64_t> words((dimension + 63) / 64, 0);
  Rng rng(seed);
  // One draw per component, in component order — the exact stream the
  // bipolar threshold of the test oracle consumes, so packing the signs here
  // keeps every bundler bit-identical to it.  next_sign() is -1 exactly when
  // next_double() >= 0.5, i.e. when the draw is >= 2^63, so the sign bit is
  // the draw's top bit and needs no branch.
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t bits = std::min<std::size_t>(64, dimension - w * 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) word |= (rng() >> 63) << b;
    words[w] = word;
  }
  return words;
}

}  // namespace graphhd::hdc
