#include "core/model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"

namespace {

using namespace graphhd::core;
using graphhd::data::GraphDataset;
using graphhd::graph::caveman;
using graphhd::graph::cycle_graph;
using graphhd::graph::random_molecule;
using graphhd::graph::star_graph;
using graphhd::hdc::Rng;

GraphHdConfig fast_config() {
  GraphHdConfig config;
  config.dimension = 4096;
  config.seed = 0x700d;
  return config;
}

/// Trees with hubs (star-like) vs ring-heavy molecules — strongly separable
/// by structure.
GraphDataset separable_dataset(std::size_t per_class, std::uint64_t seed) {
  Rng rng(seed);
  GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < per_class; ++i) {
    dataset.add(star_graph(10 + rng.next_below(5)), 0);
    dataset.add(cycle_graph(10 + rng.next_below(5)), 1);
  }
  return dataset;
}

TEST(GraphHdModel, RequiresTwoClasses) {
  EXPECT_THROW(GraphHdModel(fast_config(), 1), std::invalid_argument);
}

TEST(GraphHdModel, FitThenPredictSeparable) {
  GraphHdModel model(fast_config(), 2);
  model.fit(separable_dataset(12, 1));
  const auto test = separable_dataset(6, 2);  // fresh samples, same families
  EXPECT_GE(model.evaluate(test), 0.9);
}

TEST(GraphHdModel, PredictReportsScoresPerClass) {
  GraphHdModel model(fast_config(), 2);
  model.fit(separable_dataset(8, 3));
  const auto prediction = model.predict(star_graph(12));
  EXPECT_EQ(prediction.label, 0u);
  EXPECT_EQ(prediction.class_scores.size(), 2u);
  EXPECT_GT(prediction.class_scores[0], prediction.class_scores[1]);
  EXPECT_DOUBLE_EQ(prediction.score, prediction.class_scores[0]);
}

TEST(GraphHdModel, DoubleFitThrows) {
  GraphHdModel model(fast_config(), 2);
  model.fit(separable_dataset(4, 5));
  EXPECT_THROW(model.fit(separable_dataset(4, 5)), std::logic_error);
}

TEST(GraphHdModel, RejectsDatasetWithMoreClassesThanModel) {
  GraphHdModel model(fast_config(), 2);
  GraphDataset dataset("x", {}, {});
  dataset.add(star_graph(5), 0);
  dataset.add(cycle_graph(5), 1);
  dataset.add(star_graph(6), 2);
  EXPECT_THROW(model.fit(dataset), std::invalid_argument);
}

TEST(GraphHdModel, PartialFitMatchesBatchFitForPlainConfig) {
  // Algorithm 1 is a single bundling pass, so online == batch (same order,
  // no extensions).
  const auto train = separable_dataset(10, 7);
  GraphHdModel batch(fast_config(), 2);
  batch.fit(train);
  GraphHdModel online(fast_config(), 2);
  for (std::size_t i = 0; i < train.size(); ++i) {
    online.partial_fit(train.graph(i), train.label(i));
  }
  const auto probe = separable_dataset(5, 8);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(batch.predict(probe.graph(i)).label, online.predict(probe.graph(i)).label);
  }
}

TEST(GraphHdModel, PartialFitValidatesLabel) {
  GraphHdModel model(fast_config(), 2);
  EXPECT_THROW(model.partial_fit(star_graph(5), 2), std::out_of_range);
}

TEST(GraphHdModel, ClassCountsAfterFit) {
  GraphHdModel model(fast_config(), 2);
  model.fit(separable_dataset(9, 9));
  const auto counts = model.class_counts();
  EXPECT_EQ(counts[0], 9u);
  EXPECT_EQ(counts[1], 9u);
}

TEST(GraphHdModel, RetrainingNeverHurtsTrainAccuracy) {
  // Harder problem: two molecule families with overlapping shapes.
  Rng rng(11);
  GraphDataset train("hard", {}, {});
  for (std::size_t i = 0; i < 30; ++i) {
    train.add(random_molecule(18, 1, rng), 0);
    train.add(random_molecule(18, 4, rng), 1);
  }

  GraphHdConfig plain = fast_config();
  GraphHdModel base(plain, 2);
  base.fit(train);
  const double base_train_acc = base.evaluate(train);

  GraphHdConfig retrained_config = fast_config();
  retrained_config.retrain_epochs = 5;
  retrained_config.quantized_model = false;  // retraining works on counters
  GraphHdModel retrained(retrained_config, 2);
  retrained.fit(train);
  const double retrained_train_acc = retrained.evaluate(train);

  EXPECT_GE(retrained_train_acc, base_train_acc - 0.05);
}

TEST(GraphHdModel, MultipleVectorsPerClassWork) {
  GraphHdConfig config = fast_config();
  config.vectors_per_class = 3;
  GraphHdModel model(config, 2);
  model.fit(separable_dataset(12, 13));
  EXPECT_GE(model.evaluate(separable_dataset(6, 14)), 0.9);
  const auto counts = model.class_counts();
  EXPECT_EQ(counts[0], 12u);  // summed across prototypes
}

TEST(GraphHdModel, QuantizedAndCounterModelsBothLearn) {
  for (const bool quantized : {true, false}) {
    GraphHdConfig config = fast_config();
    config.quantized_model = quantized;
    GraphHdModel model(config, 2);
    model.fit(separable_dataset(10, 17));
    EXPECT_GE(model.evaluate(separable_dataset(5, 18)), 0.9)
        << "quantized=" << quantized;
  }
}

TEST(GraphHdModel, EvaluateEmptyDatasetIsZero) {
  GraphHdModel model(fast_config(), 2);
  model.fit(separable_dataset(4, 19));
  EXPECT_DOUBLE_EQ(model.evaluate(GraphDataset("e", {}, {})), 0.0);
}

TEST(GraphHdModel, DeterministicAcrossRuns) {
  const auto train = separable_dataset(8, 21);
  const auto probe = separable_dataset(4, 22);
  GraphHdModel a(fast_config(), 2), b(fast_config(), 2);
  a.fit(train);
  b.fit(train);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(a.predict(probe.graph(i)).label, b.predict(probe.graph(i)).label);
    EXPECT_DOUBLE_EQ(a.predict(probe.graph(i)).score, b.predict(probe.graph(i)).score);
  }
}

TEST(GraphHdModel, CopiesAreIndependentValues) {
  // A copy carries the trained state and predicts identically; training the
  // copy on leaves the original and its cached snapshot untouched.
  static_assert(std::is_copy_constructible_v<GraphHdModel>);
  static_assert(std::is_copy_assignable_v<GraphHdModel>);
  GraphHdModel original(fast_config(), 2);
  original.fit(separable_dataset(8, 23));
  const auto before = original.predict(star_graph(12));

  GraphHdModel copy = original;
  EXPECT_EQ(copy.predict(star_graph(12)).class_scores, before.class_scores);
  GraphHdModel assigned(fast_config(), 2);
  assigned = original;
  EXPECT_EQ(assigned.predict(star_graph(12)).class_scores, before.class_scores);

  for (std::size_t n = 6; n < 12; ++n) copy.partial_fit(star_graph(n), 1);
  EXPECT_NE(copy.predict(star_graph(12)).class_scores, before.class_scores);
  EXPECT_EQ(original.predict(star_graph(12)).class_scores, before.class_scores);
  EXPECT_EQ(original.class_counts(), (std::vector<std::size_t>{8, 8}));
}

TEST(GraphHdModel, LabelAwareExtensionUsesDatasetLabels) {
  // Same structure, different vertex labels per class: only the label-aware
  // model can separate them.
  GraphDataset train("labeled", {}, {});
  std::vector<std::vector<std::size_t>> vertex_labels;
  for (std::size_t i = 0; i < 10; ++i) {
    train.add(cycle_graph(8), 0);
    vertex_labels.push_back(std::vector<std::size_t>(8, 0));
    train.add(cycle_graph(8), 1);
    vertex_labels.push_back(std::vector<std::size_t>(8, 1));
  }
  train.set_vertex_labels(vertex_labels);

  GraphHdConfig config = fast_config();
  config.use_vertex_labels = true;
  GraphHdModel model(config, 2);
  model.fit(train);
  EXPECT_GE(model.evaluate(train), 0.99);

  GraphHdConfig blind_config = fast_config();
  GraphHdModel blind(blind_config, 2);
  blind.fit(train);
  // Structure-only model cannot beat chance here.
  EXPECT_LE(blind.evaluate(train), 0.75);
}

}  // namespace
