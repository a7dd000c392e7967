/// \file dense_reference.hpp
/// The paper-exact dense reference that the bit-identity suites hold the
/// packed library against: bipolar arithmetic, a bipolar encoder, a bipolar
/// class memory and a bipolar-fed trainer.
///
/// The library computes in packed words only: GraphHdEncoder bundles through
/// the bit-sliced majority, and GraphHdModel keeps signed counters fed by
/// the packed kernels and scores by popcount or hdc::counter_cosine.  This
/// reference runs the same pipeline the way the paper states it, on bipolar
/// ±1 components, with its own scalar code:
///   - bind, dot, permute and similarity on hdc::Hypervector values;
///   - DenseAccumulator: weighted signed counters, a threshold that draws
///     one Rng::next_sign() per component, and the raw-counter cosine;
///   - DenseMemory: the class memory (per-slot counters, per-class tie
///     seeds, first-maximum argmax, the three metrics);
///   - DenseEncoder: Section IV plus extensions VII.1c and VII.2, with
///     ItemMemory bases (support/item_memory.hpp);
///   - DenseReference: Algorithm 1 plus retraining on a DenseMemory.
/// The basis seeds, the tie-break seeds, the model's slot layout (class c,
/// prototype r -> slot c * vectors_per_class + r), its round-robin prototype
/// assignment, its retraining rule and its Prediction shape are restated
/// here independently, so a test comparing the two checks the packed path
/// against the bipolar one rather than against itself.

#pragma once

#include <algorithm>
#include <cmath>
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
#include "item_memory.hpp"

namespace graphhd::testsupport {

/// Seed of the class memory's per-class tie-break streams (slot c draws
/// from derive_seed(kClassTieSeed, c)).  Restated, not taken from the
/// library's hdc::kMajorityTieSeed, so that a change there shows.
inline constexpr std::uint64_t kClassTieSeed = 0x7fb5d329728ea185ULL;

inline void require_same_dimension(std::size_t a, std::size_t b) {
  if (a != b) throw std::invalid_argument("dense reference: dimension mismatch");
}

/// Element-wise product — the bipolar binding operator.
[[nodiscard]] inline hdc::Hypervector bind(const hdc::Hypervector& a, const hdc::Hypervector& b) {
  require_same_dimension(a.dimension(), b.dimension());
  std::vector<std::int8_t> out(a.dimension());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::int8_t>(a[i] * b[i]);
  return hdc::Hypervector(std::move(out));
}

/// Exact dot product sum a[i] * b[i].
[[nodiscard]] inline std::int64_t dot(const hdc::Hypervector& a, const hdc::Hypervector& b) {
  require_same_dimension(a.dimension(), b.dimension());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < a.dimension(); ++i) sum += a[i] * b[i];
  return sum;
}

/// δ(a, b) on bipolar vectors.  Both norms are sqrt(d), so the cosine is
/// dot / d; kDot is scaled by 1/d too, and inverse Hamming is 1 - h/d with
/// h the number of differing components.  Dimension 0 scores 0.
[[nodiscard]] inline double similarity(const hdc::Hypervector& a, const hdc::Hypervector& b,
                                       hdc::Similarity metric = hdc::Similarity::kCosine) {
  require_same_dimension(a.dimension(), b.dimension());
  if (a.dimension() == 0) return 0.0;
  const auto d = static_cast<double>(a.dimension());
  switch (metric) {
    case hdc::Similarity::kCosine:
    case hdc::Similarity::kDot:
      return static_cast<double>(dot(a, b)) / d;
    case hdc::Similarity::kInverseHamming: {
      std::size_t differing = 0;
      for (std::size_t i = 0; i < a.dimension(); ++i) differing += a[i] != b[i] ? 1 : 0;
      return 1.0 - static_cast<double>(differing) / d;
    }
  }
  throw std::logic_error("dense reference: unknown metric");
}

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

/// Signed per-component counters: the bipolar bundling accumulator.
class DenseAccumulator {
 public:
  explicit DenseAccumulator(std::size_t dimension = 0) : counts_(dimension, 0) {}

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::span<const std::int32_t> counts() const noexcept { return counts_; }
  /// True when the total absolute weight added is odd (no counter can be 0).
  [[nodiscard]] bool tie_free() const noexcept { return odd_weight_; }

  /// counts[i] += weight * hv[i].
  void add(const hdc::Hypervector& hv, std::int32_t weight = 1) {
    require_same_dimension(counts_.size(), hv.dimension());
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += weight * hv[i];
    ++count_;
    if (weight % 2 != 0) odd_weight_ = !odd_weight_;
  }

  /// Majority: the sign of each counter.  A zero counter takes the i-th
  /// draw of Rng(tie_seed).next_sign(); the stream advances one draw per
  /// component, tied or not.
  [[nodiscard]] hdc::Hypervector threshold(std::uint64_t tie_seed) const {
    hdc::Rng tie(tie_seed);
    std::vector<std::int8_t> out(counts_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const int sign = tie.next_sign();
      out[i] = static_cast<std::int8_t>(counts_[i] > 0 ? 1 : counts_[i] < 0 ? -1 : sign);
    }
    return hdc::Hypervector(std::move(out));
  }

  /// Cosine between the raw counters and a bipolar vector:
  /// dot / (sqrt(|c|^2) * sqrt(d)), 0 for empty or all-zero counters.
  [[nodiscard]] double cosine(const hdc::Hypervector& hv) const {
    require_same_dimension(counts_.size(), hv.dimension());
    std::int64_t dot_product = 0;
    std::int64_t norm_sq = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      dot_product += static_cast<std::int64_t>(counts_[i]) * hv[i];
      norm_sq += static_cast<std::int64_t>(counts_[i]) * counts_[i];
    }
    if (norm_sq == 0) return 0.0;
    const double denom =
        std::sqrt(static_cast<double>(norm_sq)) * std::sqrt(static_cast<double>(counts_.size()));
    return static_cast<double>(dot_product) / denom;
  }

 private:
  std::vector<std::int32_t> counts_;
  std::size_t count_ = 0;
  bool odd_weight_ = false;
};

/// One class-memory query: every slot's similarity and the first maximum.
struct DenseQuery {
  std::size_t best_class = 0;
  double best_similarity = -2.0;
  std::vector<double> similarities;
};

/// The class memory on bipolar vectors: one DenseAccumulator per slot.  A
/// quantized memory scores δ against each slot's majority vector (ties from
/// derive_seed(kClassTieSeed, slot)); a counter memory scores the
/// raw-counter cosine.
class DenseMemory {
 public:
  DenseMemory(std::size_t dimension, std::size_t slots, hdc::Similarity metric, bool quantized)
      : metric_(metric),
        quantized_(quantized),
        accumulators_(slots, DenseAccumulator(dimension)),
        counts_(slots, 0) {}

  [[nodiscard]] std::size_t num_classes() const noexcept { return accumulators_.size(); }
  [[nodiscard]] const DenseAccumulator& accumulator(std::size_t slot) const {
    return accumulators_.at(slot);
  }
  [[nodiscard]] std::size_t class_count(std::size_t slot) const { return counts_.at(slot); }

  void add(std::size_t slot, const hdc::Hypervector& hv) {
    accumulators_.at(slot).add(hv);
    ++counts_.at(slot);
    class_vectors_.clear();
  }

  /// Perceptron update: +hv on the true slot, -hv on the predicted one.
  void retrain_update(std::size_t true_slot, std::size_t predicted_slot,
                      const hdc::Hypervector& hv) {
    if (true_slot == predicted_slot) return;
    accumulators_.at(true_slot).add(hv, 1);
    accumulators_.at(predicted_slot).add(hv, -1);
    class_vectors_.clear();
  }

  /// The quantized class vector of `slot`.
  [[nodiscard]] const hdc::Hypervector& class_vector(std::size_t slot) const {
    if (class_vectors_.empty()) {
      for (std::size_t c = 0; c < accumulators_.size(); ++c) {
        class_vectors_.push_back(accumulators_[c].threshold(hdc::derive_seed(kClassTieSeed, c)));
      }
    }
    return class_vectors_.at(slot);
  }

  [[nodiscard]] DenseQuery query(const hdc::Hypervector& hv) const {
    DenseQuery result;
    for (std::size_t slot = 0; slot < accumulators_.size(); ++slot) {
      const double s = quantized_ ? similarity(class_vector(slot), hv, metric_)
                                  : accumulators_[slot].cosine(hv);
      result.similarities.push_back(s);
      if (s > result.best_similarity) {
        result.best_similarity = s;
        result.best_class = slot;
      }
    }
    return result;
  }

 private:
  hdc::Similarity metric_;
  bool quantized_;
  std::vector<DenseAccumulator> accumulators_;
  std::vector<std::size_t> counts_;
  mutable std::vector<hdc::Hypervector> class_vectors_;  ///< empty after any update.
};

/// GraphHD's encoder on bipolar vectors: rank (and label) basis vectors from
/// ItemMemory, majority bundling through DenseAccumulator.
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
      if (bind_labels) vertex[v] = bind(vertex[v], label_memory_.get(labels[v]));
    }
    // Message passing: each round, every vertex becomes the majority of its
    // closed neighbourhood, ties seeded per (round, rank).
    for (std::size_t round = 0; round < config_.neighborhood_rounds; ++round) {
      const std::uint64_t round_seed = hdc::derive_seed(tie_seed_, 0x6d70ULL + round);
      std::vector<hdc::Hypervector> refined(n);
      for (graph::VertexId v = 0; v < n; ++v) {
        DenseAccumulator neighborhood(config_.dimension);
        neighborhood.add(vertex[v]);
        for (const graph::VertexId u : graph.neighbors(v)) neighborhood.add(vertex[u]);
        refined[v] = neighborhood.threshold(hdc::derive_seed(round_seed, ranks[v]));
      }
      vertex = std::move(refined);
    }

    DenseAccumulator bundle(config_.dimension);
    if (graph.num_edges() == 0) {
      for (const hdc::Hypervector& hv : vertex) bundle.add(hv);
    } else if (!bind_labels && config_.neighborhood_rounds == 0) {
      for (const auto& e : graph.edges()) bundle.add(bind(vertex[e.u], vertex[e.v]));
    } else {
      // Extensions: the higher-ranked endpoint is permuted by one position.
      for (const auto& e : graph.edges()) {
        const bool u_first = ranks[e.u] <= ranks[e.v];
        const hdc::Hypervector& lo = vertex[u_first ? e.u : e.v];
        const hdc::Hypervector& hi = vertex[u_first ? e.v : e.u];
        bundle.add(bind(lo, permute(hi, 1)));
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
        const DenseQuery result = memory_.query(encoded[i]);
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
    const DenseQuery result = memory_.query(encoded);
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

  /// The bipolar class memory: counters and quantized class vectors.
  [[nodiscard]] const DenseMemory& memory() const noexcept { return memory_; }

 private:
  void bundle(std::size_t label, const hdc::Hypervector& encoded) {
    const std::size_t replica = cursor_[label];
    cursor_[label] = (replica + 1) % config_.vectors_per_class;
    memory_.add(label * config_.vectors_per_class + replica, encoded);
  }

  core::GraphHdConfig config_;
  DenseEncoder encoder_;
  DenseMemory memory_;
  std::vector<std::size_t> cursor_;  ///< round-robin prototype per class.
};

}  // namespace graphhd::testsupport
