#include "core/encoder.hpp"

#include <optional>
#include <stdexcept>

#include "hdc/bitslice.hpp"
#include "hdc/random.hpp"
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
      rank_seed_(hdc::derive_seed(config.seed, "vertex-rank-basis")),
      label_seed_(hdc::derive_seed(config.seed, "vertex-label-basis")),
      tie_break_seed_(hdc::derive_seed(config.seed, "bundle-tie-break")) {
  config_.validate();
  tie_words_ = hdc::tie_sign_words(tie_break_seed_, config_.dimension);
  round_tie_cache_.resize(config_.neighborhood_rounds);
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

Hypervector GraphHdEncoder::encode(const Graph& graph) { return encode_packed(graph).to_bipolar(); }

hdc::PackedHypervector GraphHdEncoder::encode_packed(const Graph& graph) {
  return encode_rows(graph, {});
}

hdc::PackedHypervector GraphHdEncoder::encode_packed(const Graph& graph,
                                                     std::span<const std::size_t> labels) {
  if (labels.size() != graph.num_vertices()) {
    throw std::invalid_argument("GraphHdEncoder::encode_packed: label count mismatch");
  }
  return encode_rows(graph, config_.use_vertex_labels ? labels : std::span<const std::size_t>{});
}

namespace {

/// Row `index` of the basis seeded `seed` (see encoder.hpp): the complement
/// of the words Rng(derive_seed(seed, index)) draws, tail masked.  Cached in
/// `cache` below the cap (the cache grows in index order), derived into
/// `scratch` past it.
const hdc::PackedHypervector& basis_row(std::uint64_t seed, std::size_t dimension,
                                        std::deque<hdc::PackedHypervector>& cache,
                                        std::size_t index,
                                        std::deque<hdc::PackedHypervector>& scratch) {
  const auto derive = [&](std::size_t k) {
    hdc::Rng rng(hdc::derive_seed(seed, static_cast<std::uint64_t>(k)));
    std::vector<std::uint64_t> words((dimension + 63) / 64);
    for (std::uint64_t& word : words) word = ~rng();
    return hdc::PackedHypervector::from_words(std::move(words), dimension);
  };
  if (index >= GraphHdEncoder::kPackedRankCacheCap) return scratch.emplace_back(derive(index));
  while (index >= cache.size()) cache.push_back(derive(cache.size()));
  return cache[index];
}

/// The message-passing tie words of the vertex with centrality rank `rank`
/// in the round seeded `round_seed`: tie_sign_words(derive_seed(round_seed,
/// rank), dimension).  Cached in `cache` below the cap (only the ranks that
/// tie are derived), written to `scratch` past it.
std::span<const std::uint64_t> round_tie_row(std::uint64_t round_seed, std::size_t dimension,
                                             std::vector<std::vector<std::uint64_t>>& cache,
                                             std::size_t rank,
                                             std::vector<std::uint64_t>& scratch) {
  const auto derive = [&] {
    return hdc::tie_sign_words(hdc::derive_seed(round_seed, rank), dimension);
  };
  if (rank >= GraphHdEncoder::kPackedRankCacheCap) return scratch = derive();
  if (rank >= cache.size()) cache.resize(rank + 1);
  if (cache[rank].empty()) cache[rank] = derive();
  return cache[rank];
}

}  // namespace

hdc::PackedHypervector GraphHdEncoder::encode_rows(const Graph& graph,
                                                   std::span<const std::size_t> labels) {
  if (graph.num_vertices() == 0) {
    throw std::invalid_argument("GraphHdEncoder: cannot encode the empty graph");
  }
  const std::size_t n = graph.num_vertices();
  const auto ranks = vertex_ranks(graph);
  const bool extended = !labels.empty() || config_.neighborhood_rounds > 0;

  // Vertex rows.  Structure-only rows point into the shared rank cache; a
  // vertex owns its row (in `owned`, whose growth never moves a row) only
  // past the cache cap, or once its label is bound in (VII.2: the XOR of
  // the rank row and the label row).
  std::vector<const hdc::PackedHypervector*> rows(n);
  std::deque<hdc::PackedHypervector> owned;
  const std::size_t d = config_.dimension;
  for (graph::VertexId v = 0; v < n; ++v) {
    rows[v] = &basis_row(rank_seed_, d, packed_rank_cache_, ranks[v], owned);
    if (!labels.empty()) {
      const auto& label_row = basis_row(label_seed_, d, packed_label_cache_, labels[v], owned);
      rows[v] = &owned.emplace_back(rows[v]->bind(label_row));
    }
  }

  // Extension VII.1c: HD message passing.  Each round replaces every vertex
  // row with the majority bundle of itself and its neighbours, so after r
  // rounds a vertex identity reflects its radius-r neighbourhood (the HDC
  // analogue of WL refinement).  Deterministic and isomorphism-invariant:
  // tie-breaks are seeded per (round, centrality rank) — a single shared tie
  // vector would correlate every even-degree vertex of every graph and
  // collapse the class vectors.  Odd neighbourhood counts cannot tie, so
  // only even ones look up their tie words, which the encoder keeps per
  // (round, rank) across graphs.
  std::vector<hdc::PackedHypervector> refined;
  std::vector<std::uint64_t> tie_scratch;
  for (std::size_t round = 0; round < config_.neighborhood_rounds; ++round) {
    const std::uint64_t round_seed =
        hdc::derive_seed(tie_break_seed_, 0x6d70ULL + round);  // "mp" + round
    hdc::BitsliceBundler neighborhood(d);
    std::vector<hdc::PackedHypervector> next(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      neighborhood.clear();
      neighborhood.add(*rows[v]);
      for (const graph::VertexId u : graph.neighbors(v)) neighborhood.add(*rows[u]);
      const std::span<const std::uint64_t> tie =
          neighborhood.count() % 2 == 0
              ? round_tie_row(round_seed, d, round_tie_cache_[round], ranks[v], tie_scratch)
              : std::span<const std::uint64_t>{};
      next[v] = neighborhood.threshold_packed(tie);
    }
    refined = std::move(next);
    for (graph::VertexId v = 0; v < n; ++v) rows[v] = &refined[v];
  }

  // The XOR bind and the carry-save majority planes run on the dispatched
  // SIMD kernels (hdc/kernels) inside BitsliceBundler.
  hdc::BitsliceBundler bundler(d);
  if (graph.num_edges() == 0) {
    // No edges to encode: bundle the vertices instead.
    for (const hdc::PackedHypervector* row : rows) bundler.add(*row);
  } else if (!extended) {
    // The paper's edge encoding: Ence((u,v)) = Encv(u) × Encv(v).
    for (const auto& e : graph.edges()) bundler.add_bound(*rows[e.u], *rows[e.v]);
  } else {
    // Extensions with graph-dependent vertex rows need the rank-ordered
    // permute-bind instead of the plain product:
    //  - label binding (VII.2): L × L = identity, so same-label endpoints
    //    would cancel their labels out;
    //  - message passing (VII.1c): adjacent refined rows share bundle
    //    members, so their plain product is biased toward the identity on
    //    *every* edge of *every* graph, collapsing class vectors.
    // Permuting the higher-ranked endpoint decorrelates the operands while
    // keeping the encoding deterministic and isomorphism-invariant (the
    // rank order defines a canonical edge direction).
    std::vector<hdc::PackedHypervector> permuted(n);
    for (graph::VertexId v = 0; v < n; ++v) permuted[v] = rows[v]->permute(1);
    for (const auto& e : graph.edges()) {
      const bool u_first = ranks[e.u] <= ranks[e.v];
      bundler.add_bound(*rows[u_first ? e.u : e.v], permuted[u_first ? e.v : e.u]);
    }
  }
  return bundler.threshold_packed(tie_words_);
}

std::vector<hdc::PackedHypervector> encode_dataset_packed(GraphHdEncoder& primary,
                                                          const data::GraphDataset& dataset) {
  const GraphHdConfig& config = primary.config();
  const bool labeled = config.use_vertex_labels && dataset.has_vertex_labels();
  std::vector<hdc::PackedHypervector> encoded(dataset.size());
  parallel::parallel_for_chunks(
      dataset.size(), [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        // Private encoders re-derive their tie words and basis rows on every
        // call — a deliberate trade: keeping them would add cross-call
        // mutable state to save ~20 us of tie words plus under 1 us per rank
        // row at d = 10,000 (a few hundred microseconds for the ~400 ranks
        // of DD-sized graphs), which the chunk's encodes amortize.
        std::optional<GraphHdEncoder> local;
        if (chunk != 0) local.emplace(config);
        GraphHdEncoder& enc = chunk == 0 ? primary : *local;
        for (std::size_t i = begin; i < end; ++i) {
          encoded[i] = labeled ? enc.encode_packed(dataset.graph(i), dataset.vertex_labels()[i])
                               : enc.encode_packed(dataset.graph(i));
        }
      });
  return encoded;
}

std::vector<hdc::Hypervector> encode_dataset(GraphHdEncoder& primary,
                                             const data::GraphDataset& dataset) {
  const std::vector<hdc::PackedHypervector> packed = encode_dataset_packed(primary, dataset);
  std::vector<hdc::Hypervector> encoded(packed.size());
  parallel::parallel_for(packed.size(),
                         [&](std::size_t i) { encoded[i] = packed[i].to_bipolar(); });
  return encoded;
}

}  // namespace graphhd::core
