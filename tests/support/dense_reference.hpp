/// \file dense_reference.hpp
/// The paper-exact dense reference trainer that the bit-identity suites hold
/// GraphHdModel against.
///
/// GraphHdModel encodes straight into packed words and bundles them with the
/// packed counter kernels.  This reference runs Algorithm 1 the way the paper
/// states it: GraphHdEncoder::encode (bipolar ±1 components) bundled into an
/// hdc::AssociativeMemory fed and queried with bipolar vectors.  The model's
/// slot layout (class c, prototype r -> slot c * vectors_per_class + r), its
/// round-robin prototype assignment, its retraining rule and its Prediction
/// shape are restated here independently, so a test comparing the two checks
/// the packed path against the dense one rather than against itself.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "hdc/assoc_memory.hpp"

namespace graphhd::testsupport {

class DenseReference {
 public:
  DenseReference(const core::GraphHdConfig& config, std::size_t num_classes)
      : config_(config),
        encoder_(config),
        memory_(config.dimension, num_classes * config.vectors_per_class, config.metric,
                config.quantized_model),
        cursor_(num_classes, 0) {}

  /// Algorithm 1 over `train` in sample order, then config.retrain_epochs
  /// perceptron passes (stopping early after a pass without mistakes).
  void fit(const data::GraphDataset& train) {
    const std::vector<hdc::Hypervector> encoded = core::encode_dataset(encoder_, train);
    for (std::size_t i = 0; i < train.size(); ++i) bundle(train.label(i), encoded[i]);
    for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
      std::size_t mistakes = 0;
      for (std::size_t i = 0; i < train.size(); ++i) {
        const hdc::QueryResult result = memory_.query(encoded[i]);
        const std::size_t label = train.label(i);
        if (result.best_class / config_.vectors_per_class == label) continue;
        ++mistakes;
        // Add to the true class's best prototype, subtract from the winner.
        std::size_t target = label * config_.vectors_per_class;
        for (std::size_t r = 1; r < config_.vectors_per_class; ++r) {
          const std::size_t slot = label * config_.vectors_per_class + r;
          if (result.similarities[slot] > result.similarities[target]) target = slot;
        }
        memory_.retrain_update(target, result.best_class, encoded[i]);
      }
      if (mistakes == 0) break;
    }
  }

  /// Online update with one structure-only sample.
  void partial_fit(const graph::Graph& graph, std::size_t label) {
    bundle(label, encoder_.encode(graph));
  }

  [[nodiscard]] core::Prediction predict_encoded(const hdc::Hypervector& encoded) const {
    const hdc::QueryResult result = memory_.query(encoded);
    core::Prediction prediction;
    prediction.class_scores.assign(cursor_.size(), -2.0);
    for (std::size_t slot = 0; slot < result.similarities.size(); ++slot) {
      double& best = prediction.class_scores[slot / config_.vectors_per_class];
      best = std::max(best, result.similarities[slot]);
    }
    prediction.label = result.best_class / config_.vectors_per_class;
    prediction.score = result.best_similarity;
    return prediction;
  }

  [[nodiscard]] core::Prediction predict(const graph::Graph& graph) {
    return predict_encoded(encoder_.encode(graph));
  }

  /// Encodes like fit (vertex labels bound in when configured and present).
  [[nodiscard]] std::vector<core::Prediction> predict_batch(const data::GraphDataset& test) {
    std::vector<core::Prediction> predictions;
    for (const hdc::Hypervector& encoded : core::encode_dataset(encoder_, test)) {
      predictions.push_back(predict_encoded(encoded));
    }
    return predictions;
  }

  /// The bipolar-fed class memory: counters and quantized class vectors.
  [[nodiscard]] const hdc::AssociativeMemory& memory() const noexcept { return memory_; }

 private:
  void bundle(std::size_t label, const hdc::Hypervector& encoded) {
    const std::size_t replica = cursor_[label];
    cursor_[label] = (replica + 1) % config_.vectors_per_class;
    memory_.add(label * config_.vectors_per_class + replica, encoded);
  }

  core::GraphHdConfig config_;
  core::GraphHdEncoder encoder_;
  hdc::AssociativeMemory memory_;
  std::vector<std::size_t> cursor_;  ///< round-robin prototype per class.
};

}  // namespace graphhd::testsupport
