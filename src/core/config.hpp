/// \file config.hpp
/// Configuration of the GraphHD algorithm.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "graph/pagerank.hpp"
#include "hdc/ops.hpp"

namespace graphhd::core {

/// Which per-vertex topological identifier to use.  The paper proposes
/// PageRank rank; degree rank is kept as an ablation knob
/// (bench/ablation_* compare them).
enum class VertexIdentifier {
  kPageRank,  ///< centrality rank from 10-iteration PageRank (the paper).
  kDegree,    ///< rank by vertex degree (cheaper, weaker identifier).
  kHarmonic,  ///< rank by harmonic (closeness-family) centrality (costlier,
              ///< distance-based — probes the identifier design space).
};

[[nodiscard]] const char* to_string(VertexIdentifier id) noexcept;

/// Numeric-backend tag recorded in the config.  The trainer runs one code
/// path under either tag — packed encoding, one signed-counter class memory,
/// Hamming or counter-cosine scoring picked by quantized_model — so the tag
/// changes no counter, class word or prediction (tests/test_backend.cpp).
/// It stays in the config because the artifacts, the wire handshake and its
/// config hash, and the encoder-compatibility contract carry it.
enum class Backend {
  kDenseBipolar,  ///< "dense": the default tag.
  kPackedBinary,  ///< "packed": requires quantized_model.
};

[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// Parses a backend name: "dense"/"bipolar" -> kDenseBipolar,
/// "packed"/"binary" -> kPackedBinary; nullopt for anything else.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view text) noexcept;

/// All knobs of GraphHD.  Defaults reproduce the paper's setup:
/// 10,000-dimensional bipolar hypervectors, 10 PageRank iterations, cosine
/// similarity, majority-quantized class vectors, no extensions.
struct GraphHdConfig {
  std::size_t dimension = 10000;
  std::size_t pagerank_iterations = 10;
  double pagerank_damping = 0.85;
  VertexIdentifier identifier = VertexIdentifier::kPageRank;
  hdc::Similarity metric = hdc::Similarity::kCosine;

  /// Recorded backend tag (see Backend).  The packed tag requires
  /// quantized_model; validate() enforces this.
  Backend backend = Backend::kDenseBipolar;

  /// true  = class vectors are majority-thresholded bipolar vectors
  ///         (Algorithm 1 of the paper);
  /// false = queries compare against the raw integer accumulators (the
  ///         "non-quantized" model; slightly more accurate, same cost class).
  bool quantized_model = true;

  /// Recorded field, like `backend`: the encoder always bundles with the
  /// bit-sliced majority (Schmuck et al.'s binarized-bundling technique),
  /// which is bit-identical to integer accumulation, and reads neither
  /// value.  It stays because the artifacts, the wire config hash and
  /// encoder_compatible carry it.
  bool use_bitslice_bundling = true;

  // ---- future-work extensions (Section VII of the paper) ----

  /// Extension VII.1a: perceptron-style retraining epochs after the initial
  /// single-pass training (0 = paper behaviour).
  std::size_t retrain_epochs = 0;

  /// Extension VII.1b: number of prototype vectors per class (1 = paper
  /// behaviour).  Samples are distributed over prototypes round-robin;
  /// queries score the maximum over a class's prototypes.
  std::size_t vectors_per_class = 1;

  /// Extension VII.2: bind vertex-label hypervectors into the vertex
  /// encoding when the dataset provides labels.
  bool use_vertex_labels = false;

  /// Extension VII.1c ("sacrifice efficiency ... to surpass the accuracy"):
  /// rounds of HD message passing before edge binding — each round replaces
  /// every vertex hypervector with the majority bundle of itself and its
  /// neighbours, propagating neighbourhood structure into the vertex
  /// identities (an HDC analogue of WL refinement / GNN aggregation).
  /// 0 = the paper's encoder.  Costs O(rounds * d * (|V|+2|E|)) per graph.
  std::size_t neighborhood_rounds = 0;

  std::uint64_t seed = 0x9badb055ULL;

  /// PageRank options implied by this config.
  [[nodiscard]] graph::PageRankOptions pagerank_options() const noexcept {
    return {.damping = pagerank_damping, .max_iterations = pagerank_iterations, .tolerance = 0.0};
  }

  /// Throws std::invalid_argument when a field is out of range.
  void validate() const;

  /// Field-wise equality — the compatibility check of GraphHdModel::merge
  /// and checkpoint resume: models merge exactly only when every knob that
  /// shapes the counters (dimension, seed, backend, extensions...) agrees.
  friend bool operator==(const GraphHdConfig&, const GraphHdConfig&) = default;
};

}  // namespace graphhd::core
