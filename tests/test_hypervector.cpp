#include "hdc/hypervector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "support/dense_reference.hpp"

namespace {

using graphhd::hdc::Hypervector;
using graphhd::hdc::PackedHypervector;
using graphhd::hdc::Rng;
using graphhd::hdc::Similarity;
using graphhd::hdc::similarity;

TEST(Hypervector, DefaultIsEmpty) {
  Hypervector hv;
  EXPECT_EQ(hv.dimension(), 0u);
  EXPECT_TRUE(hv.components().empty());
}

TEST(Hypervector, SizedConstructorIsAllOnes) {
  const Hypervector hv = PackedHypervector(16).to_bipolar();
  EXPECT_EQ(hv.dimension(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(hv[i], 1);
}

TEST(Hypervector, ComponentConstructorValidates) {
  EXPECT_NO_THROW(Hypervector(std::vector<std::int8_t>{1, -1, 1}));
  EXPECT_THROW(Hypervector(std::vector<std::int8_t>{1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Hypervector(std::vector<std::int8_t>{2}), std::invalid_argument);
}

// The library computes on packed words, so the algebra below is checked on
// PackedHypervector (bit set = bipolar -1: XOR binds, popcount measures),
// against the bipolar arithmetic of the dense reference where a number is
// compared.

TEST(Hypervector, RandomIsDeterministicPerSeed) {
  Rng a(5), b(5);
  EXPECT_EQ(PackedHypervector::random(256, a), PackedHypervector::random(256, b));
}

TEST(Hypervector, RandomIsApproximatelyBalanced) {
  Rng rng(7);
  const auto hv = PackedHypervector::random(10000, rng);
  const PackedHypervector all_plus(10000);
  const auto minus = static_cast<std::int64_t>(hv.hamming_distance(all_plus));
  // Binomial std of the component sum is sqrt(d) = 100; 5 sigma bound.
  EXPECT_LT(std::abs(10000 - 2 * minus), 500);
}

TEST(Hypervector, RandomHandlesNonMultipleOf64Dimensions) {
  Rng rng(11);
  const auto hv = PackedHypervector::random(67, rng);
  EXPECT_EQ(hv.dimension(), 67u);
  EXPECT_EQ(hv.to_bipolar().dimension(), 67u);
  EXPECT_EQ(hv.words()[1] >> 3, 0u) << "tail bits must stay clear";
}

TEST(Hypervector, DotWithSelfEqualsDimension) {
  Rng rng(13);
  const auto hv = PackedHypervector::random(1000, rng);
  EXPECT_EQ(hv.hamming_distance(hv), 0u);
  EXPECT_EQ(similarity(hv, hv, Similarity::kDot), 1.0);
}

TEST(Hypervector, DotHammingIdentity) {
  Rng rng(17);
  const auto a = PackedHypervector::random(2048, rng);
  const auto b = PackedHypervector::random(2048, rng);
  // dot = d - 2 * hamming for bipolar vectors.
  EXPECT_EQ(graphhd::testsupport::dot(a.to_bipolar(), b.to_bipolar()),
            static_cast<std::int64_t>(2048) -
                2 * static_cast<std::int64_t>(a.hamming_distance(b)));
}

TEST(Hypervector, DotIsSymmetric) {
  Rng rng(19);
  const auto a = PackedHypervector::random(512, rng);
  const auto b = PackedHypervector::random(512, rng);
  EXPECT_EQ(a.hamming_distance(b), b.hamming_distance(a));
  EXPECT_EQ(similarity(a, b, Similarity::kDot), similarity(b, a, Similarity::kDot));
}

TEST(Hypervector, DotRejectsDimensionMismatch) {
  Rng rng(23);
  const auto a = PackedHypervector::random(16, rng);
  const auto b = PackedHypervector::random(32, rng);
  EXPECT_THROW((void)similarity(a, b, Similarity::kDot), std::invalid_argument);
  EXPECT_THROW((void)a.hamming_distance(b), std::invalid_argument);
  EXPECT_THROW((void)similarity(a, b), std::invalid_argument);
  EXPECT_THROW((void)a.bind(b), std::invalid_argument);
}

TEST(Hypervector, CosineSelfIsOne) {
  Rng rng(29);
  const auto hv = PackedHypervector::random(1024, rng);
  EXPECT_DOUBLE_EQ(similarity(hv, hv), 1.0);
}

TEST(Hypervector, CosineOppositeIsMinusOne) {
  Rng rng(31);
  const auto hv = PackedHypervector::random(128, rng);
  std::vector<std::uint64_t> flipped(hv.words().begin(), hv.words().end());
  for (std::uint64_t& word : flipped) word = ~word;
  const auto negated = PackedHypervector::from_words(std::move(flipped), 128);
  EXPECT_DOUBLE_EQ(similarity(hv, negated), -1.0);
}

TEST(Hypervector, RandomPairQuasiOrthogonal) {
  Rng rng(37);
  const auto a = PackedHypervector::random(10000, rng);
  const auto b = PackedHypervector::random(10000, rng);
  // Expected cosine 0 with std 1/sqrt(d) = 0.01; allow 5 sigma.
  EXPECT_LT(std::abs(similarity(a, b)), 0.05);
}

TEST(Hypervector, BindIsCommutative) {
  Rng rng(41);
  const auto a = PackedHypervector::random(256, rng);
  const auto b = PackedHypervector::random(256, rng);
  EXPECT_EQ(a.bind(b), b.bind(a));
}

TEST(Hypervector, BindIsAssociative) {
  Rng rng(43);
  const auto a = PackedHypervector::random(256, rng);
  const auto b = PackedHypervector::random(256, rng);
  const auto c = PackedHypervector::random(256, rng);
  EXPECT_EQ(a.bind(b).bind(c), a.bind(b.bind(c)));
}

TEST(Hypervector, BindIsSelfInverse) {
  Rng rng(47);
  const auto a = PackedHypervector::random(256, rng);
  const auto b = PackedHypervector::random(256, rng);
  EXPECT_EQ(a.bind(b).bind(b), a);
}

TEST(Hypervector, BindWithIdentityIsNoop) {
  Rng rng(53);
  const auto a = PackedHypervector::random(64, rng);
  const PackedHypervector identity(64);  // all +1
  EXPECT_EQ(a.bind(identity), a);
}

TEST(Hypervector, BindResultQuasiOrthogonalToOperands) {
  Rng rng(59);
  const auto a = PackedHypervector::random(10000, rng);
  const auto b = PackedHypervector::random(10000, rng);
  const auto bound = a.bind(b);
  EXPECT_LT(std::abs(similarity(bound, a)), 0.05);
  EXPECT_LT(std::abs(similarity(bound, b)), 0.05);
}

TEST(Hypervector, BindPreservesDistances) {
  Rng rng(61);
  const auto a = PackedHypervector::random(4096, rng);
  const auto b = PackedHypervector::random(4096, rng);
  const auto key = PackedHypervector::random(4096, rng);
  EXPECT_EQ(a.hamming_distance(b), a.bind(key).hamming_distance(b.bind(key)));
}

// The permutation operator is PackedHypervector::permute, the one the
// encoder's extension edges use (tests/test_packed.cpp checks it against
// the bipolar rotation of the dense reference).

TEST(Hypervector, PermuteByZeroIsIdentity) {
  Rng rng(67);
  const auto a = PackedHypervector::random(100, rng);
  EXPECT_EQ(a.permute(0), a);
}

TEST(Hypervector, PermuteByDimensionIsIdentity) {
  Rng rng(71);
  const auto a = PackedHypervector::random(100, rng);
  EXPECT_EQ(a.permute(100), a);
  EXPECT_EQ(a.permute(-100), a);
}

TEST(Hypervector, PermuteRoundTrips) {
  Rng rng(73);
  const auto a = PackedHypervector::random(100, rng);
  EXPECT_EQ(a.permute(17).permute(-17), a);
}

TEST(Hypervector, PermuteComposes) {
  Rng rng(79);
  const auto a = PackedHypervector::random(100, rng);
  EXPECT_EQ(a.permute(3).permute(4), a.permute(7));
}

TEST(Hypervector, PermuteDecorrelates) {
  Rng rng(83);
  const auto a = PackedHypervector::random(10000, rng);
  EXPECT_LT(std::abs(a.permute(1).similarity(a)), 0.05);
}

TEST(Hypervector, PermutePreservesDistances) {
  Rng rng(89);
  const auto a = PackedHypervector::random(1000, rng);
  const auto b = PackedHypervector::random(1000, rng);
  EXPECT_EQ(a.hamming_distance(b), a.permute(5).hamming_distance(b.permute(5)));
}

TEST(Hypervector, FlipTogglesComponent) {
  PackedHypervector hv(8);
  hv.set_bit(3, !hv.bit(3));
  EXPECT_EQ(hv.to_bipolar()[3], -1);
  hv.set_bit(3, !hv.bit(3));
  EXPECT_EQ(hv.to_bipolar()[3], 1);
}

TEST(Hypervector, WithNoiseFlipsExactCount) {
  Rng rng(97);
  const auto a = PackedHypervector::random(1000, rng);
  const auto noisy = a.with_noise(100, rng);
  EXPECT_EQ(a.hamming_distance(noisy), 100u);
}

TEST(Hypervector, WithZeroNoiseIsIdentity) {
  Rng rng(101);
  const auto a = PackedHypervector::random(100, rng);
  EXPECT_EQ(a.with_noise(0, rng), a);
}

/// Property: similarity degrades linearly with noise (robustness claim of
/// Section I/III of the paper).
class NoiseRobustness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NoiseRobustness, CosineDropsLinearly) {
  const std::size_t flips = GetParam();
  Rng rng(103);
  const auto a = PackedHypervector::random(10000, rng);
  const auto noisy = a.with_noise(flips, rng);
  const double expected = 1.0 - 2.0 * static_cast<double>(flips) / 10000.0;
  EXPECT_NEAR(similarity(a, noisy), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(FlipCounts, NoiseRobustness,
                         ::testing::Values(0, 10, 100, 1000, 2500, 5000));

}  // namespace
