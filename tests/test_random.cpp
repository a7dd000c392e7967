#include "hdc/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <string_view>

namespace {

using graphhd::hdc::derive_seed;
using graphhd::hdc::fnv1a;
using graphhd::hdc::Rng;
using graphhd::hdc::splitmix64_next;

TEST(Splitmix64, IsDeterministic) {
  std::uint64_t a = 42, b = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64_next(a), splitmix64_next(b));
  }
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t state = 7;
  const auto first = splitmix64_next(state);
  const auto second = splitmix64_next(state);
  EXPECT_NE(first, second);
}

TEST(DeriveSeed, DistinctStreamsDiffer) {
  const auto a = derive_seed(123, std::uint64_t{0});
  const auto b = derive_seed(123, std::uint64_t{1});
  EXPECT_NE(a, b);
}

TEST(DeriveSeed, LabelsHashDistinctly) {
  EXPECT_NE(derive_seed(1, "vertex-basis"), derive_seed(1, "label-basis"));
  EXPECT_EQ(derive_seed(1, "x"), derive_seed(1, "x"));
}

TEST(DeriveSeed, DependsOnParentSeed) {
  EXPECT_NE(derive_seed(1, "x"), derive_seed(2, "x"));
}

TEST(DeriveSeed, LabelsHashWithFnv1a64) {
  const auto bytes = [](std::string_view text) {
    return std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  };
  // The published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a(bytes("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(bytes("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(bytes("foobar")), 0x85944171f73967e8ULL);
  EXPECT_EQ(derive_seed(7, "foobar"), derive_seed(7, std::uint64_t{0x85944171f73967e8ULL}));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a() == b() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInBounds) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoolProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, SignIsBalanced) {
  Rng rng(29);
  int pos = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) pos += rng.next_sign() > 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split(1);
  Rng child2 = parent.split(2);
  EXPECT_NE(child(), child2());
  // Splitting must be a pure function of (seed, stream).
  Rng again = Rng(31).split(1);
  Rng child_b = Rng(31).split(1);
  ASSERT_EQ(again(), child_b());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleHandlesSmallInputs) {
  Rng rng(41);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{7};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{7});
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWithoutReplacementAllElements) {
  Rng rng(47);
  const auto sample = rng.sample_without_replacement(10, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleLargerThanPopulationReturnsAll) {
  Rng rng(53);
  const auto sample = rng.sample_without_replacement(5, 100);
  EXPECT_EQ(sample.size(), 5u);
}

/// Property sweep: next_below stays unbiased across bounds (chi-square-ish
/// sanity: every bucket within 3x of uniform expectation).
class RngBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundProperty, NextBelowRoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Rng rng(61 + bound);
  std::vector<int> counts(bound, 0);
  const int draws = 2000 * static_cast<int>(bound);
  for (int i = 0; i < draws; ++i) ++counts[rng.next_below(bound)];
  const double expected = static_cast<double>(draws) / static_cast<double>(bound);
  for (const int c : counts) {
    EXPECT_GT(c, expected / 2.0);
    EXPECT_LT(c, expected * 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundProperty, ::testing::Values(2, 3, 5, 7, 16, 33));

}  // namespace
