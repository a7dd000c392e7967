#include "hdc/assoc_memory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using namespace graphhd::hdc;

/// Builds a memory with `per_class` noisy variants of one prototype per
/// class.
AssociativeMemory make_trained_memory(std::size_t dimension, std::size_t classes,
                                      std::size_t per_class, std::uint64_t seed,
                                      std::vector<PackedHypervector>* prototypes_out = nullptr,
                                      bool quantized = true) {
  Rng rng(seed);
  AssociativeMemory memory(dimension, classes, Similarity::kCosine, quantized);
  std::vector<PackedHypervector> prototypes;
  for (std::size_t c = 0; c < classes; ++c) {
    prototypes.push_back(PackedHypervector::random(dimension, rng));
    for (std::size_t s = 0; s < per_class; ++s) {
      memory.add(c, prototypes.back().with_noise(dimension / 10, rng));
    }
  }
  if (prototypes_out != nullptr) *prototypes_out = std::move(prototypes);
  return memory;
}

TEST(AssociativeMemory, RejectsDegenerateConstruction) {
  EXPECT_THROW(AssociativeMemory(0, 2), std::invalid_argument);
  EXPECT_THROW(AssociativeMemory(64, 0), std::invalid_argument);
}

TEST(AssociativeMemory, ClassifiesNoisyPrototypes) {
  std::vector<PackedHypervector> prototypes;
  auto memory = make_trained_memory(10000, 4, 5, 3, &prototypes);
  Rng rng(99);
  for (std::size_t c = 0; c < 4; ++c) {
    const auto query_hv = prototypes[c].with_noise(2000, rng);
    const auto result = memory.query(query_hv);
    EXPECT_EQ(result.best_class, c);
    EXPECT_GT(result.best_similarity, 0.3);
  }
}

TEST(AssociativeMemory, SimilaritiesVectorCoversAllClasses) {
  auto memory = make_trained_memory(1000, 3, 2, 5);
  Rng rng(7);
  const auto result = memory.query(PackedHypervector::random(1000, rng));
  EXPECT_EQ(result.similarities.size(), 3u);
}

TEST(AssociativeMemory, MarginPositiveForCleanQueries) {
  std::vector<PackedHypervector> prototypes;
  auto memory = make_trained_memory(10000, 2, 3, 11, &prototypes);
  const auto result = memory.query(prototypes[0]);
  EXPECT_EQ(result.best_class, 0u);
  EXPECT_GT(result.margin(), 0.2);
}

TEST(AssociativeMemory, QueryDimensionMismatchThrows) {
  AssociativeMemory memory(64, 2);
  Rng rng(13);
  EXPECT_THROW((void)memory.query(PackedHypervector::random(32, rng)), std::invalid_argument);
}

TEST(AssociativeMemory, AddLabelOutOfRangeThrows) {
  AssociativeMemory memory(64, 2);
  Rng rng(17);
  EXPECT_THROW(memory.add(2, PackedHypervector::random(64, rng)), std::out_of_range);
}

TEST(AssociativeMemory, ClassCountsTrackAdds) {
  auto memory = make_trained_memory(128, 3, 4, 19);
  EXPECT_EQ(memory.class_count(0), 4u);
  EXPECT_EQ(memory.class_count(1), 4u);
  EXPECT_EQ(memory.class_count(2), 4u);
  EXPECT_THROW((void)memory.class_count(3), std::out_of_range);
}

TEST(AssociativeMemory, ClassVectorIsMajorityOfAdds) {
  AssociativeMemory memory(512, 2);
  Rng rng(23);
  const auto a = PackedHypervector::random(512, rng);
  memory.add(0, a);
  // Single sample: the class vector must be the sample itself.
  EXPECT_EQ(memory.packed_class_vector(0), a);
}

TEST(AssociativeMemory, RetrainUpdateMovesDecisionBoundary) {
  // Start with a memory whose class 0 was polluted by class-1-like samples;
  // retraining with the misclassified sample must flip the prediction.
  const std::size_t d = 10000;
  Rng rng(29);
  const auto proto0 = PackedHypervector::random(d, rng);
  const auto proto1 = PackedHypervector::random(d, rng);
  AssociativeMemory memory(d, 2, Similarity::kCosine, /*quantized=*/false);
  memory.add(0, proto0);
  memory.add(1, proto1);
  // `sample` is a class-1 item that was wrongly bundled into class 0 thrice.
  const auto sample = proto1.with_noise(d / 20, rng);
  memory.add(0, sample);
  memory.add(0, sample);
  memory.add(0, sample);
  ASSERT_EQ(memory.query(sample).best_class, 0u);
  for (int i = 0; i < 4; ++i) {
    memory.retrain_update(/*true_label=*/1, /*predicted_label=*/0, sample);
  }
  EXPECT_EQ(memory.query(sample).best_class, 1u);
}

TEST(AssociativeMemory, RetrainUpdateNoopWhenLabelsEqual) {
  auto memory = make_trained_memory(256, 2, 2, 31);
  const auto before = memory.packed_class_vector(0);
  Rng rng(37);
  memory.retrain_update(0, 0, PackedHypervector::random(256, rng));
  EXPECT_EQ(memory.packed_class_vector(0), before);
}

TEST(AssociativeMemory, RetrainUpdateValidatesLabels) {
  auto memory = make_trained_memory(64, 2, 1, 41);
  Rng rng(43);
  const auto hv = PackedHypervector::random(64, rng);
  EXPECT_THROW(memory.retrain_update(5, 0, hv), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(0, 5, hv), std::out_of_range);
}

TEST(AssociativeMemory, QuantizedAndCounterModelsAgreeOnEasyQueries) {
  std::vector<PackedHypervector> prototypes;
  auto quantized = make_trained_memory(10000, 3, 5, 47, &prototypes, /*quantized=*/true);
  auto counters = make_trained_memory(10000, 3, 5, 47, nullptr, /*quantized=*/false);
  Rng rng(53);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto query_hv = prototypes[c].with_noise(1000, rng);
    EXPECT_EQ(quantized.query(query_hv).best_class, counters.query(query_hv).best_class);
  }
}

TEST(AssociativeMemory, EmptyClassDoesNotWinAgainstTrainedClass) {
  const std::size_t d = 10000;
  Rng rng(59);
  const auto proto = PackedHypervector::random(d, rng);
  AssociativeMemory memory(d, 3);
  memory.add(1, proto);
  const auto result = memory.query(proto.with_noise(500, rng));
  EXPECT_EQ(result.best_class, 1u);
}

TEST(AssociativeMemory, MetricIsConfigurable) {
  AssociativeMemory memory(128, 2, Similarity::kInverseHamming);
  EXPECT_EQ(memory.metric(), Similarity::kInverseHamming);
  Rng rng(61);
  const auto a = PackedHypervector::random(128, rng);
  memory.add(0, a);
  memory.add(1, PackedHypervector::random(128, rng));
  const auto result = memory.query(a);
  EXPECT_EQ(result.best_class, 0u);
  // Inverse-Hamming similarity of identical vectors is exactly 1.
  EXPECT_DOUBLE_EQ(result.best_similarity, 1.0);
}

TEST(QueryResult, MarginOfSingleClassIsZero) {
  QueryResult result;
  result.similarities = {0.7};
  EXPECT_DOUBLE_EQ(result.margin(), 0.0);
}

TEST(QueryResult, MarginComputesBestMinusSecond) {
  QueryResult result;
  result.similarities = {0.2, 0.9, 0.5};
  EXPECT_NEAR(result.margin(), 0.4, 1e-12);
}

}  // namespace
