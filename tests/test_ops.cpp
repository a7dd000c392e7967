#include "hdc/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "support/dense_reference.hpp"

namespace {

using namespace graphhd::hdc;

std::vector<PackedHypervector> random_batch(std::size_t count, std::size_t dimension,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PackedHypervector> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(PackedHypervector::random(dimension, rng));
  }
  return batch;
}

TEST(Similarity, MetricNamesAreStable) {
  EXPECT_STREQ(to_string(Similarity::kCosine), "cosine");
  EXPECT_STREQ(to_string(Similarity::kInverseHamming), "inverse-hamming");
  EXPECT_STREQ(to_string(Similarity::kDot), "dot");
}

TEST(Similarity, CosineAndDotAgreeOnBipolar) {
  const auto batch = random_batch(2, 4096, 3);
  EXPECT_NEAR(similarity(batch[0], batch[1], Similarity::kCosine),
              similarity(batch[0], batch[1], Similarity::kDot), 1e-12);
}

TEST(Similarity, InverseHammingIsAffineInCosine) {
  const auto batch = random_batch(2, 4096, 5);
  const double cos = similarity(batch[0], batch[1], Similarity::kCosine);
  const double inv_ham = similarity(batch[0], batch[1], Similarity::kInverseHamming);
  // inverse-hamming = 1 - h/d and cosine = 1 - 2h/d, so inv_ham = (1+cos)/2.
  EXPECT_NEAR(inv_ham, (1.0 + cos) / 2.0, 1e-12);
}

TEST(Similarity, SelfSimilarityIsMaximal) {
  const auto batch = random_batch(1, 1000, 7);
  EXPECT_DOUBLE_EQ(similarity(batch[0], batch[0], Similarity::kCosine), 1.0);
  EXPECT_DOUBLE_EQ(similarity(batch[0], batch[0], Similarity::kInverseHamming), 1.0);
}

TEST(Similarity, PackedOverloadBitIdenticalToDenseAcrossMetrics) {
  Rng rng(0x9acced);
  for (const std::size_t d : {1u, 63u, 64u, 65u, 1000u, 10000u}) {
    const auto pa = PackedHypervector::random(d, rng);
    const auto pb = PackedHypervector::random(d, rng);
    for (const Similarity metric :
         {Similarity::kCosine, Similarity::kInverseHamming, Similarity::kDot}) {
      // Bit-identical doubles, not approximate: the packed scorer must
      // reproduce the dense reference's bipolar arithmetic exactly.
      EXPECT_EQ(similarity(pa, pb, metric),
                graphhd::testsupport::similarity(pa.to_bipolar(), pb.to_bipolar(), metric))
          << to_string(metric) << " d=" << d;
    }
  }
}

TEST(Similarity, PackedOverloadRejectsDimensionMismatch) {
  const PackedHypervector a(64);
  const PackedHypervector b(65);
  EXPECT_THROW((void)similarity(a, b), std::invalid_argument);
}

TEST(Similarity, PackedOverloadEmptyVectorsCompareAsZero) {
  EXPECT_EQ(similarity(PackedHypervector(), PackedHypervector()), 0.0);
}

}  // namespace
