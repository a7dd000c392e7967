#include "core/encoder.hpp"

#include <optional>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace graphhd::core {

const char* to_string(VertexIdentifier id) noexcept {
  switch (id) {
    case VertexIdentifier::kPageRank:
      return "pagerank";
    case VertexIdentifier::kDegree:
      return "degree";
    case VertexIdentifier::kHarmonic:
      return "harmonic";
  }
  return "unknown";
}

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kDenseBipolar:
      return "dense";
    case Backend::kPackedBinary:
      return "packed";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view text) noexcept {
  if (text == "dense" || text == "bipolar") return Backend::kDenseBipolar;
  if (text == "packed" || text == "binary") return Backend::kPackedBinary;
  return std::nullopt;
}

void GraphHdConfig::validate() const {
  if (dimension == 0) {
    throw std::invalid_argument("GraphHdConfig: dimension must be positive");
  }
  // Negated interval check so NaN (which fails every comparison) is rejected
  // too — a NaN damping would silently poison every PageRank score.
  if (!(pagerank_damping >= 0.0 && pagerank_damping < 1.0)) {
    throw std::invalid_argument("GraphHdConfig: damping must be in [0, 1)");
  }
  if (vectors_per_class == 0) {
    throw std::invalid_argument("GraphHdConfig: vectors_per_class must be >= 1");
  }
  if (backend == Backend::kPackedBinary && !quantized_model) {
    throw std::invalid_argument(
        "GraphHdConfig: the packed backend requires quantized_model — binary "
        "class vectors are majority-quantized by construction");
  }
}

GraphHdEncoder::GraphHdEncoder(const GraphHdConfig& config)
    : config_(config),
      rank_memory_(config.dimension, hdc::derive_seed(config.seed, "vertex-rank-basis")),
      label_memory_(config.dimension, hdc::derive_seed(config.seed, "vertex-label-basis")),
      tie_break_seed_(hdc::derive_seed(config.seed, "bundle-tie-break")) {
  config_.validate();
}

std::vector<std::size_t> GraphHdEncoder::vertex_ranks(const Graph& graph) const {
  switch (config_.identifier) {
    case VertexIdentifier::kPageRank:
      return graph::centrality_ranks(graph::pagerank(graph, config_.pagerank_options()).scores);
    case VertexIdentifier::kDegree:
      return graph::centrality_ranks(graph::degree_centrality(graph));
    case VertexIdentifier::kHarmonic:
      return graph::centrality_ranks(graph::harmonic_centrality(graph));
  }
  throw std::logic_error("GraphHdEncoder: unknown identifier");
}

const Hypervector& GraphHdEncoder::rank_basis(std::size_t rank) { return rank_memory_.get(rank); }

Hypervector GraphHdEncoder::encode(const Graph& graph) { return encode_impl(graph, {}); }

Hypervector GraphHdEncoder::encode(const Graph& graph, std::span<const std::size_t> labels) {
  if (labels.size() != graph.num_vertices()) {
    throw std::invalid_argument("GraphHdEncoder::encode: label count mismatch");
  }
  return encode_impl(graph, labels);
}

Hypervector GraphHdEncoder::encode_impl(const Graph& graph,
                                        std::span<const std::size_t> labels) {
  if (graph.num_vertices() == 0) {
    throw std::invalid_argument("GraphHdEncoder: cannot encode the empty graph");
  }
  const auto ranks = vertex_ranks(graph);
  const bool bind_labels = config_.use_vertex_labels && !labels.empty();

  if (!bind_labels && config_.neighborhood_rounds == 0 && config_.use_bitslice_bundling &&
      graph.num_edges() > 0) {
    return encode_bitslice(graph, ranks);
  }

  // Vertex hypervectors.  Without labels they are the shared rank basis
  // vectors (referenced, not copied — ItemMemory references are stable);
  // with labels each vertex owns its rank × label binding.
  std::vector<const Hypervector*> vertex_hvs(graph.num_vertices());
  std::vector<Hypervector> owned;
  if (bind_labels) owned.reserve(graph.num_vertices());
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const Hypervector& basis = rank_memory_.get(ranks[v]);
    if (bind_labels) {
      owned.push_back(basis.bind(label_memory_.get(labels[v])));
      vertex_hvs[v] = &owned.back();
    } else {
      vertex_hvs[v] = &basis;
    }
  }

  // Extension VII.1c: HD message passing.  Each round replaces every vertex
  // hypervector with the majority bundle of itself and its neighbours, so
  // after r rounds a vertex identity reflects its radius-r neighbourhood
  // (the HDC analogue of WL refinement).  Deterministic and isomorphism-
  // invariant: tie-breaks are seeded per (round, centrality rank) — a
  // single shared tie vector would correlate every even-degree vertex of
  // every graph and collapse the class vectors.
  for (std::size_t round = 0; round < config_.neighborhood_rounds; ++round) {
    const std::uint64_t round_seed =
        hdc::derive_seed(tie_break_seed_, 0x6d70ULL + round);  // "mp" + round
    std::vector<Hypervector> refined(graph.num_vertices());
    for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
      hdc::BundleAccumulator neighborhood(config_.dimension);
      neighborhood.add(*vertex_hvs[v]);
      for (const graph::VertexId u : graph.neighbors(v)) {
        neighborhood.add(*vertex_hvs[u]);
      }
      refined[v] = neighborhood.threshold(hdc::derive_seed(round_seed, ranks[v]));
    }
    owned = std::move(refined);
    for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
      vertex_hvs[v] = &owned[v];
    }
  }

  hdc::BundleAccumulator accumulator(config_.dimension);
  if (graph.num_edges() == 0) {
    // Documented fallback: no edges to encode, bundle the vertices instead.
    for (const Hypervector* hv : vertex_hvs) accumulator.add(*hv);
  } else if (!bind_labels && config_.neighborhood_rounds == 0) {
    // The paper's edge encoding: Ence((u,v)) = Encv(u) × Encv(v).
    for (const auto& e : graph.edges()) {
      accumulator.add_bound(*vertex_hvs[e.u], *vertex_hvs[e.v]);
    }
  } else {
    // Extensions with graph-dependent vertex vectors need the rank-ordered
    // permute-bind instead of the plain product:
    //  - label binding (VII.2): L × L = identity for bipolar vectors, so
    //    same-label endpoints would cancel their labels out;
    //  - message passing (VII.1c): adjacent refined vectors share bundle
    //    members, so their plain product is biased toward the all-ones
    //    vector on *every* edge of *every* graph, collapsing class vectors.
    // Permuting the higher-ranked endpoint decorrelates the operands while
    // keeping the encoding deterministic and isomorphism-invariant (the
    // rank order defines a canonical edge direction).
    for (const auto& e : graph.edges()) {
      const bool u_first = ranks[e.u] <= ranks[e.v];
      const Hypervector& lo = u_first ? *vertex_hvs[e.u] : *vertex_hvs[e.v];
      const Hypervector& hi = u_first ? *vertex_hvs[e.v] : *vertex_hvs[e.u];
      accumulator.add_bound(lo, hi.permute(1));
    }
  }
  return accumulator.threshold(tie_break_seed_);
}

hdc::PackedHypervector GraphHdEncoder::encode_packed(const Graph& graph) {
  if (graph.num_vertices() == 0) {
    throw std::invalid_argument("GraphHdEncoder: cannot encode the empty graph");
  }
  if (config_.neighborhood_rounds == 0 && config_.use_bitslice_bundling) {
    // Fully packed path: XOR-bound basis vectors through the bit-sliced
    // majority, thresholded straight into packed words.  For edgeless graphs
    // the bundler holds the vertex vectors instead (the documented encoder
    // fallback); the bitslice majority is bit-identical to the dense
    // BundleAccumulator, so this still matches from_bipolar(encode(graph)).
    const auto ranks = vertex_ranks(graph);
    hdc::BitsliceBundler bundler(config_.dimension);
    bundle_packed(graph, ranks, bundler);
    return bundler.threshold_packed(tie_break_seed_);
  }
  // Extension paths (message passing) and the reference-bundling benchmark
  // mode reuse the dense encoder and pack at the boundary.
  return hdc::PackedHypervector::from_bipolar(encode_impl(graph, {}));
}

hdc::PackedHypervector GraphHdEncoder::encode_packed(const Graph& graph,
                                                     std::span<const std::size_t> labels) {
  // Label binding entangles every vertex vector with its label vector; the
  // packed fast path only covers the shared-basis baseline, so encode dense
  // and pack at the boundary (bit-identical by construction).
  return hdc::PackedHypervector::from_bipolar(encode(graph, labels));
}

const hdc::PackedHypervector& GraphHdEncoder::packed_rank_basis(std::size_t rank) {
  if (rank >= kPackedRankCacheCap) {
    throw std::logic_error("GraphHdEncoder::packed_rank_basis: rank beyond cache cap");
  }
  while (rank >= packed_rank_cache_.size()) {
    packed_rank_cache_.push_back(
        hdc::PackedHypervector::from_bipolar(rank_memory_.get(packed_rank_cache_.size())));
  }
  return packed_rank_cache_[rank];
}

void GraphHdEncoder::bundle_packed(const Graph& graph, std::span<const std::size_t> ranks,
                                   hdc::BitsliceBundler& bundler) {
  // Identical math to the reference path: per edge the bound vector is the
  // component-wise sign product, i.e. the XOR of the packed operands; the
  // bundle is the per-component majority with the same seeded tie-break.
  // The XOR and the carry-save majority planes run on the dispatched SIMD
  // kernels (hdc/kernels) inside BitsliceBundler.
  // Ranks below the cap come from the bounded cache; the (rare) tail of a
  // huge graph is packed into per-call scratch storage so the cache never
  // grows past kPackedRankCacheCap.
  std::vector<const hdc::PackedHypervector*> vertex_hvs(graph.num_vertices());
  std::deque<hdc::PackedHypervector> overflow;
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::size_t rank = ranks[v];
    if (rank < kPackedRankCacheCap) {
      vertex_hvs[v] = &packed_rank_basis(rank);
    } else {
      overflow.push_back(hdc::PackedHypervector::from_bipolar(rank_memory_.get(rank)));
      vertex_hvs[v] = &overflow.back();
    }
  }
  if (graph.num_edges() == 0) {
    for (const hdc::PackedHypervector* hv : vertex_hvs) bundler.add(*hv);
    return;
  }
  for (const auto& e : graph.edges()) {
    bundler.add_bound(*vertex_hvs[e.u], *vertex_hvs[e.v]);
  }
}

Hypervector GraphHdEncoder::encode_bitslice(const Graph& graph,
                                            std::span<const std::size_t> ranks) {
  hdc::BitsliceBundler bundler(config_.dimension);
  bundle_packed(graph, ranks, bundler);
  return bundler.threshold_bipolar(tie_break_seed_);
}

namespace {

/// Shared chunked-parallel body of encode_dataset/encode_dataset_packed:
/// chunk 0 uses `primary` on the caller thread, every other chunk a private
/// encoder built from the same config.  The private encoders re-derive
/// their basis vectors on every batch call — a deliberate trade: keeping
/// them would add cross-call mutable state for a cost that is amortized
/// over the whole chunk anyway.
template <typename Output, typename EncodeOne>
std::vector<Output> encode_dataset_impl(GraphHdEncoder& primary,
                                        const data::GraphDataset& dataset,
                                        EncodeOne&& encode_one) {
  const GraphHdConfig& config = primary.config();
  const bool labeled = config.use_vertex_labels && dataset.has_vertex_labels();
  std::vector<Output> encoded(dataset.size());
  parallel::parallel_for_chunks(
      dataset.size(), [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::optional<GraphHdEncoder> local;
        if (chunk != 0) local.emplace(config);
        GraphHdEncoder& enc = chunk == 0 ? primary : *local;
        for (std::size_t i = begin; i < end; ++i) {
          encoded[i] = encode_one(enc, i, labeled);
        }
      });
  return encoded;
}

}  // namespace

std::vector<hdc::Hypervector> encode_dataset(GraphHdEncoder& primary,
                                             const data::GraphDataset& dataset) {
  return encode_dataset_impl<hdc::Hypervector>(
      primary, dataset, [&](GraphHdEncoder& enc, std::size_t i, bool labeled) {
        return labeled ? enc.encode(dataset.graph(i), dataset.vertex_labels()[i])
                       : enc.encode(dataset.graph(i));
      });
}

std::vector<hdc::PackedHypervector> encode_dataset_packed(GraphHdEncoder& primary,
                                                          const data::GraphDataset& dataset) {
  return encode_dataset_impl<hdc::PackedHypervector>(
      primary, dataset, [&](GraphHdEncoder& enc, std::size_t i, bool labeled) {
        return labeled ? enc.encode_packed(dataset.graph(i), dataset.vertex_labels()[i])
                       : enc.encode_packed(dataset.graph(i));
      });
}

}  // namespace graphhd::core
