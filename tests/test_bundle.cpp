#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "support/dense_reference.hpp"

namespace {

using graphhd::hdc::BundleAccumulator;
using graphhd::hdc::counter_cosine;
using graphhd::hdc::Hypervector;
using graphhd::hdc::PackedHypervector;
using graphhd::hdc::Rng;
using graphhd::hdc::similarity;

std::vector<PackedHypervector> random_batch(std::size_t count, std::size_t dimension,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PackedHypervector> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(PackedHypervector::random(dimension, rng));
  }
  return batch;
}

PackedHypervector packed(std::vector<std::int8_t> components) {
  return PackedHypervector::from_bipolar(Hypervector(std::move(components)));
}

TEST(BundleAccumulator, SingleInputThresholdsToItself) {
  Rng rng(3);
  const auto hv = PackedHypervector::random(512, rng);
  BundleAccumulator acc(512);
  acc.add(hv);
  EXPECT_EQ(acc.threshold_packed(), hv);
}

TEST(BundleAccumulator, OddMajorityIsExact) {
  // Three vectors: the majority of each component must win.
  BundleAccumulator acc(4);
  acc.add(packed({1, 1, -1, -1}));
  acc.add(packed({1, -1, -1, 1}));
  acc.add(packed({1, 1, 1, -1}));
  const auto bundled = acc.threshold_packed().to_bipolar();
  EXPECT_EQ(bundled[0], 1);
  EXPECT_EQ(bundled[1], 1);
  EXPECT_EQ(bundled[2], -1);
  EXPECT_EQ(bundled[3], -1);
}

TEST(BundleAccumulator, TieBreakIsDeterministicPerSeed) {
  const auto batch = random_batch(2, 1000, 11);
  BundleAccumulator acc(1000);
  acc.add(batch[0]);
  acc.add(batch[1]);
  EXPECT_EQ(acc.threshold_packed(123), acc.threshold_packed(123));
  // Ties exist with 2 random inputs (≈half the components), so distinct
  // seeds should disagree somewhere.
  EXPECT_NE(acc.threshold_packed(123), acc.threshold_packed(456));
}

TEST(BundleAccumulator, TieBreakOnlyAffectsTiedComponents) {
  BundleAccumulator acc(4);
  acc.add(packed({1, -1, 1, -1}));
  acc.add(packed({1, -1, -1, 1}));
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
    const auto bundled = acc.threshold_packed(seed).to_bipolar();
    EXPECT_EQ(bundled[0], 1);   // 2 votes for +1
    EXPECT_EQ(bundled[1], -1);  // 2 votes for -1
  }
}

TEST(BundleAccumulator, CountTracksAdds) {
  BundleAccumulator acc(8);
  EXPECT_EQ(acc.count(), 0u);
  const auto batch = random_batch(5, 8, 13);
  for (const auto& hv : batch) acc.add(hv);
  EXPECT_EQ(acc.count(), 5u);
}

TEST(BundleAccumulator, SubtractCancelsAdd) {
  const auto batch = random_batch(3, 256, 17);
  BundleAccumulator with, without;
  with = BundleAccumulator(256);
  without = BundleAccumulator(256);
  with.add(batch[0]);
  with.add(batch[1]);
  with.add(batch[2]);
  with.add(batch[2], -1);
  without.add(batch[0]);
  without.add(batch[1]);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(with.counts()[i], without.counts()[i]);
  }
}

TEST(BundleAccumulator, WeightedAddScalesCounts) {
  const auto batch = random_batch(1, 64, 19);
  BundleAccumulator acc(64);
  acc.add(batch[0], 3);
  const auto bipolar = batch[0].to_bipolar();
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(acc.counts()[i], 3 * bipolar[i]);
  }
}

TEST(BundleAccumulator, AddBoundMatchesBindThenAdd) {
  // An edge term: the counters of the packed XOR-bind equal those of the
  // bipolar product in the dense reference.
  const auto batch = random_batch(2, 512, 23);
  BundleAccumulator fused(512);
  graphhd::testsupport::DenseAccumulator naive(512);
  fused.add(batch[0].bind(batch[1]));
  naive.add(graphhd::testsupport::bind(batch[0].to_bipolar(), batch[1].to_bipolar()));
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(fused.counts()[i], naive.counts()[i]);
  }
  EXPECT_EQ(fused.count(), naive.count());
}

TEST(BundleAccumulator, ClearResets) {
  const auto batch = random_batch(2, 32, 29);
  BundleAccumulator acc(32);
  acc.add(batch[0]);
  acc.add(batch[1]);
  acc.clear();
  EXPECT_EQ(acc.count(), 0u);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(acc.counts()[i], 0);
}

TEST(BundleAccumulator, DimensionMismatchThrows) {
  BundleAccumulator acc(16);
  Rng rng(31);
  EXPECT_THROW(acc.add(PackedHypervector::random(8, rng)), std::invalid_argument);
}

TEST(BundleAccumulator, CosineAgainstRawCounts) {
  const auto batch = random_batch(1, 1024, 37);
  BundleAccumulator acc(1024);
  acc.add(batch[0]);
  // Accumulator holds exactly batch[0]; its counter cosine with itself is 1.
  EXPECT_NEAR(counter_cosine(acc.counts(), batch[0].words().data()), 1.0, 1e-12);
}

TEST(BundleAccumulator, CosineOfEmptyAccumulatorIsZero) {
  BundleAccumulator acc(64);
  Rng rng(41);
  const auto query = PackedHypervector::random(64, rng);
  EXPECT_DOUBLE_EQ(counter_cosine(acc.counts(), query.words().data()), 0.0);
}

/// Core HDC property: a bundle is similar to each of its members and
/// dissimilar to outsiders; the member similarity shrinks as the bundle
/// grows (≈ sqrt(2/(pi k)) for k odd random inputs).
class BundleMembership : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BundleMembership, MembersScoreHigherThanOutsiders) {
  const std::size_t k = GetParam();
  const std::size_t d = 10000;
  const auto members = random_batch(k, d, 47 + k);
  Rng rng(1000 + k);
  const auto outsider = PackedHypervector::random(d, rng);
  BundleAccumulator acc(d);
  for (const auto& member : members) acc.add(member);
  const auto bundled = acc.threshold_packed();

  double min_member = 1.0;
  for (const auto& member : members) {
    min_member = std::min(min_member, similarity(bundled, member));
  }
  const double outsider_sim = std::abs(similarity(bundled, outsider));
  EXPECT_GT(min_member, 0.05);
  EXPECT_LT(outsider_sim, 0.05);
  EXPECT_GT(min_member, outsider_sim);

  // Expected member similarity for odd k is about sqrt(2 / (pi k)).
  if (k % 2 == 1) {
    const double expected = std::sqrt(2.0 / (3.14159265358979 * static_cast<double>(k)));
    for (const auto& member : members) {
      EXPECT_NEAR(similarity(bundled, member), expected, 0.35 * expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BundleSizes, BundleMembership, ::testing::Values(1, 3, 5, 9, 21, 51));

}  // namespace
