/// \file dense_reference.hpp
/// The paper-exact dense reference that the bit-identity suites hold the
/// packed library against: a bipolar encoder and a bipolar-fed trainer.
///
/// GraphHdEncoder computes in packed words and GraphHdModel bundles them
/// with the packed counter kernels.  This reference runs the same pipeline
/// the way the paper states it, on bipolar ±1 components: DenseEncoder
/// restates the encoder (Section IV plus extensions VII.1c and VII.2) with
/// ItemMemory bases (support/item_memory.hpp, drawn through
/// Hypervector::random), BundleAccumulator bundling, bipolar bind and its
/// own bipolar permute, and DenseReference runs Algorithm 1 on an
/// hdc::AssociativeMemory fed and queried with bipolar vectors.  The basis
/// seeds, the tie-break seeds, the model's slot layout (class c, prototype
/// r -> slot c * vectors_per_class + r), its round-robin prototype
/// assignment, its retraining rule and its Prediction shape are restated
/// here independently, so a test comparing the two checks the packed path
/// against the dense one rather than against itself.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "graph/pagerank.hpp"
#include "hdc/assoc_memory.hpp"
#include "item_memory.hpp"

namespace graphhd::testsupport {

/// Cyclic rotation of the components by `shift` positions: component i
/// moves to (i + shift) mod d.  The bipolar permutation that
/// PackedHypervector::permute must match.
[[nodiscard]] inline hdc::Hypervector permute(const hdc::Hypervector& hv, std::ptrdiff_t shift) {
  const auto d = static_cast<std::ptrdiff_t>(hv.dimension());
  if (d == 0) return hv;
  const auto offset = static_cast<std::size_t>((shift % d + d) % d);
  std::vector<std::int8_t> out(hv.dimension());
  for (std::size_t i = 0; i < out.size(); ++i) out[(i + offset) % out.size()] = hv[i];
  return hdc::Hypervector(std::move(out));
}

/// GraphHD's encoder on bipolar vectors: rank (and label) basis vectors from
/// ItemMemory, majority bundling through BundleAccumulator.
class DenseEncoder {
 public:
  explicit DenseEncoder(const core::GraphHdConfig& config)
      : config_(config),
        rank_memory_(config.dimension, hdc::derive_seed(config.seed, "vertex-rank-basis")),
        label_memory_(config.dimension, hdc::derive_seed(config.seed, "vertex-label-basis")),
        tie_seed_(hdc::derive_seed(config.seed, "bundle-tie-break")) {}

  /// Encodes `graph`; `labels` (one per vertex) are bound in when
  /// config.use_vertex_labels.
  [[nodiscard]] hdc::Hypervector encode(const graph::Graph& graph,
                                        std::span<const std::size_t> labels = {}) {
    const std::size_t n = graph.num_vertices();
    if (n == 0) throw std::invalid_argument("DenseEncoder: empty graph");
    const bool bind_labels = config_.use_vertex_labels && !labels.empty();
    const std::vector<std::size_t> ranks = vertex_ranks(graph);

    std::vector<hdc::Hypervector> vertex(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      vertex[v] = rank_memory_.get(ranks[v]);
      if (bind_labels) vertex[v] = vertex[v].bind(label_memory_.get(labels[v]));
    }
    // Message passing: each round, every vertex becomes the majority of its
    // closed neighbourhood, ties seeded per (round, rank).
    for (std::size_t round = 0; round < config_.neighborhood_rounds; ++round) {
      const std::uint64_t round_seed = hdc::derive_seed(tie_seed_, 0x6d70ULL + round);
      std::vector<hdc::Hypervector> refined(n);
      for (graph::VertexId v = 0; v < n; ++v) {
        hdc::BundleAccumulator neighborhood(config_.dimension);
        neighborhood.add(vertex[v]);
        for (const graph::VertexId u : graph.neighbors(v)) neighborhood.add(vertex[u]);
        refined[v] = neighborhood.threshold(hdc::derive_seed(round_seed, ranks[v]));
      }
      vertex = std::move(refined);
    }

    hdc::BundleAccumulator bundle(config_.dimension);
    if (graph.num_edges() == 0) {
      for (const hdc::Hypervector& hv : vertex) bundle.add(hv);
    } else if (!bind_labels && config_.neighborhood_rounds == 0) {
      for (const auto& e : graph.edges()) bundle.add(vertex[e.u].bind(vertex[e.v]));
    } else {
      // Extensions: the higher-ranked endpoint is permuted by one position.
      for (const auto& e : graph.edges()) {
        const bool u_first = ranks[e.u] <= ranks[e.v];
        const hdc::Hypervector& lo = vertex[u_first ? e.u : e.v];
        const hdc::Hypervector& hi = vertex[u_first ? e.v : e.u];
        bundle.add(lo.bind(permute(hi, 1)));
      }
    }
    return bundle.threshold(tie_seed_);
  }

  /// Basis vector of centrality rank `rank`.
  [[nodiscard]] const hdc::Hypervector& rank_basis(std::size_t rank) {
    return rank_memory_.get(rank);
  }

  /// Every sample of `dataset`, labels bound in exactly when configured and
  /// present.
  [[nodiscard]] std::vector<hdc::Hypervector> encode_dataset(const data::GraphDataset& dataset) {
    const bool labeled = config_.use_vertex_labels && dataset.has_vertex_labels();
    std::vector<hdc::Hypervector> encoded;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      encoded.push_back(labeled ? encode(dataset.graph(i), dataset.vertex_labels()[i])
                                : encode(dataset.graph(i)));
    }
    return encoded;
  }

 private:
  [[nodiscard]] std::vector<std::size_t> vertex_ranks(const graph::Graph& graph) const {
    switch (config_.identifier) {
      case core::VertexIdentifier::kPageRank:
        return graph::centrality_ranks(graph::pagerank(graph, config_.pagerank_options()).scores);
      case core::VertexIdentifier::kDegree:
        return graph::centrality_ranks(graph::degree_centrality(graph));
      case core::VertexIdentifier::kHarmonic:
        return graph::centrality_ranks(graph::harmonic_centrality(graph));
    }
    throw std::logic_error("DenseEncoder: unknown identifier");
  }

  core::GraphHdConfig config_;
  ItemMemory rank_memory_;
  ItemMemory label_memory_;
  std::uint64_t tie_seed_;
};

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
    const std::vector<hdc::Hypervector> encoded = encoder_.encode_dataset(train);
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
    for (const hdc::Hypervector& encoded : encoder_.encode_dataset(test)) {
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
  DenseEncoder encoder_;
  hdc::AssociativeMemory memory_;
  std::vector<std::size_t> cursor_;  ///< round-robin prototype per class.
};

}  // namespace graphhd::testsupport
