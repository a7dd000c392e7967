#include "core/pipeline.hpp"

#include <stdexcept>

namespace graphhd::core {

GraphHd::GraphHd(GraphHdConfig config) : config_(config) { config_.validate(); }

void GraphHd::fit(const data::GraphDataset& train) {
  if (train.num_classes() < 2) {
    throw std::invalid_argument("GraphHd::fit: dataset must contain at least 2 classes");
  }
  model_.emplace(config_, train.num_classes());
  model_->fit(train);
}

void GraphHd::fit_stream(data::GraphStream& stream, const TrainOptions& options) {
  if (stream.num_classes() < 2) {
    throw std::invalid_argument("GraphHd::fit_stream: stream must contain at least 2 classes");
  }
  model_.emplace(config_, stream.num_classes());
  model_->fit_stream(stream, options);
}

std::vector<std::size_t> GraphHd::predict_stream(data::GraphStream& stream,
                                                 const StreamOptions& options) {
  std::vector<std::size_t> labels;
  if (const auto hint = stream.size_hint(); hint.has_value()) labels.reserve(*hint);
  model().predict_stream(stream, options, [&](std::size_t, const Prediction& prediction) {
    labels.push_back(prediction.label);
  });
  return labels;
}

void GraphHd::partial_fit(const graph::Graph& graph, std::size_t label,
                          std::size_t num_classes) {
  if (!model_.has_value()) {
    model_.emplace(config_, num_classes);
  } else if (num_classes != model_->num_classes()) {
    throw std::invalid_argument("GraphHd::partial_fit: class count changed mid-stream");
  }
  model_->partial_fit(graph, label);
}

std::size_t GraphHd::predict(const graph::Graph& graph) {
  return model().predict(graph).label;
}

Prediction GraphHd::predict_detailed(const graph::Graph& graph) {
  return model().predict(graph);
}

std::vector<std::size_t> GraphHd::predict_batch(const data::GraphDataset& test) {
  const auto predictions = model().predict_batch(test);
  std::vector<std::size_t> labels;
  labels.reserve(predictions.size());
  for (const Prediction& p : predictions) labels.push_back(p.label);
  return labels;
}

double GraphHd::score(const data::GraphDataset& test) { return model().evaluate(test); }

GraphHdModel& GraphHd::model() {
  if (!model_.has_value()) {
    throw std::logic_error("GraphHd: call fit() or partial_fit() first");
  }
  return *model_;
}

std::shared_ptr<const InferenceSnapshot> GraphHd::snapshot() { return model().snapshot(); }

}  // namespace graphhd::core
