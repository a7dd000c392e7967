/// \file pipeline.hpp
/// GraphHd — the user-facing fit/predict facade over encoder + model.
///
/// Quickstart:
/// \code
///   graphhd::core::GraphHd classifier;          // paper defaults
///   classifier.fit(train_dataset);              // Algorithm 1
///   std::size_t label = classifier.predict(g);  // nearest class vector
///   double acc = classifier.score(test_dataset);
/// \endcode

#pragma once

#include <memory>
#include <optional>

#include "core/model.hpp"

namespace graphhd::core {

/// Scikit-learn style classifier wrapper.  The underlying model is created
/// at fit() time (when the class count is known); predict/score before fit
/// throw std::logic_error.
class GraphHd {
 public:
  explicit GraphHd(GraphHdConfig config = {});

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool fitted() const noexcept { return model_.has_value(); }

  /// Trains on the dataset (Algorithm 1 + configured extensions).
  void fit(const data::GraphDataset& train);

  /// Streaming training over a GraphStream (data/stream.hpp): chunked,
  /// bounded-memory, bit-identical to fit() on the materialized stream.
  /// TrainOptions also carries sharding and checkpoint/resume — see
  /// GraphHdModel::fit_stream.
  void fit_stream(data::GraphStream& stream, const TrainOptions& options = {});

  /// Streaming prediction (class ids in stream order, bounded memory).
  [[nodiscard]] std::vector<std::size_t> predict_stream(data::GraphStream& stream,
                                                        const StreamOptions& options = {});

  /// Starts (or continues) an online model covering `num_classes` classes,
  /// feeding one sample.  Interchangeable with fit(): fit() is just the
  /// batched version with extensions.
  void partial_fit(const graph::Graph& graph, std::size_t label, std::size_t num_classes);

  /// Predicted class id for one graph.
  [[nodiscard]] std::size_t predict(const graph::Graph& graph);

  /// Predicted class ids for every sample of `test` (same order).  Encodes
  /// and queries in parallel over the process-wide thread pool; bit-identical
  /// at any thread count.  Encodes like fit()/score() do: with
  /// config.use_vertex_labels on a labeled dataset the labels are bound in
  /// (single-graph predict() has no label argument and encodes structure
  /// only).
  [[nodiscard]] std::vector<std::size_t> predict_batch(const data::GraphDataset& test);

  /// Full prediction with per-class scores.
  [[nodiscard]] Prediction predict_detailed(const graph::Graph& graph);

  /// Mean accuracy on a labeled dataset.
  [[nodiscard]] double score(const data::GraphDataset& test);

  /// Access to the underlying model (throws before fit/partial_fit).
  [[nodiscard]] GraphHdModel& model();

  /// Immutable inference view of the trained state (throws before
  /// fit/partial_fit) — the hot-swap/serving handle; see core/snapshot.hpp.
  [[nodiscard]] std::shared_ptr<const InferenceSnapshot> snapshot();

 private:
  GraphHdConfig config_;
  std::optional<GraphHdModel> model_;
};

}  // namespace graphhd::core
