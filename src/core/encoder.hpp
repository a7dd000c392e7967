/// \file encoder.hpp
/// The GraphHD encoder: graphs -> hypervectors (Section IV of the paper).
///
/// Pipeline per graph:
///   1. PageRank (fixed iteration count) -> per-vertex centrality *ranks*;
///   2. vertex hypervector  Encv(v) = B[rank(v)], row rank(v) of a random
///      basis derived from the config seed (optionally bound with a row of
///      the label basis — extension VII.2);
///   3. edge hypervector    Ence((u,v)) = Encv(u) × Encv(v)  (binding);
///   4. graph hypervector   EncG(G) = [ Σ_e Ence(e) ]        (bundling).
///
/// Graphs without edges fall back to bundling the vertex hypervectors: the
/// paper's encoder is undefined for m = 0, and the vertex bundle keeps such
/// graphs distinguishable by size and identifiers instead of mapping all of
/// them to one vector.
///
/// The encoder computes in packed words only (bit set = bipolar -1): binding
/// is XOR and bundling is the bit-sliced majority of hdc/bitslice.hpp.
/// Row k of a basis seeded s is the complement of the ceil(d/64) words
/// Rng(derive_seed(s, k)) draws, tail bits masked: the packing of the
/// bipolar vector that maps each set draw bit to +1.
/// encode() returns the bipolar image of encode_packed() for callers that
/// want ±1 components; tests/support/dense_reference.hpp restates the whole
/// pipeline on bipolar vectors as the independent oracle.

#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/packed.hpp"

namespace graphhd::core {

using graph::Graph;
using hdc::Hypervector;

/// Stateful encoder: derives its basis rows (vertex ranks and vertex labels)
/// and its tie-break words from the config seed alone, and caches the rows
/// it has used.  The same config therefore encodes the same graph to the
/// same hypervector in any process, which is what makes train/test
/// encodings compatible.
class GraphHdEncoder {
 public:
  /// Hard cap on each packed cache, in rows: the rank rows, the label rows,
  /// and the message-passing tie words of each round (one row per rank, so
  /// those hold at most neighborhood_rounds x kPackedRankCacheCap rows).
  /// 1024 rows at d = 10,000 is ~1.3 MB; ranks and labels beyond the cap
  /// are derived into per-call scratch storage instead, so one huge graph
  /// cannot grow the caches without bound.
  static constexpr std::size_t kPackedRankCacheCap = 1024;

  explicit GraphHdEncoder(const GraphHdConfig& config);

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }

  /// encode_packed(graph) as bipolar components.
  [[nodiscard]] Hypervector encode(const Graph& graph);

  /// Encodes one graph (structure only — the paper's baseline) into packed
  /// words: XOR-bound rank rows through the bit-sliced majority.  Throws
  /// std::invalid_argument on the empty graph.
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph);

  /// Encodes one graph with vertex labels; `labels` must have one entry per
  /// vertex (throws std::invalid_argument otherwise).  The labels are bound
  /// in only when config.use_vertex_labels (extension VII.2).
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph,
                                                     std::span<const std::size_t> labels);

  /// The centrality ranks the encoder assigns to `graph`'s vertices
  /// (exposed for tests and diagnostics).
  [[nodiscard]] std::vector<std::size_t> vertex_ranks(const Graph& graph) const;

  /// Entries currently held by the packed rank-basis cache (always
  /// <= kPackedRankCacheCap; exposed for the cache-bound regression tests).
  [[nodiscard]] std::size_t packed_rank_cache_size() const noexcept {
    return packed_rank_cache_.size();
  }

 private:
  /// The one encoding body behind both encode_packed overloads; `labels` is
  /// empty for structure-only encoding.
  [[nodiscard]] hdc::PackedHypervector encode_rows(const Graph& graph,
                                                   std::span<const std::size_t> labels);

  GraphHdConfig config_;
  std::uint64_t rank_seed_;
  std::uint64_t label_seed_;
  std::uint64_t tie_break_seed_;
  std::vector<std::uint64_t> tie_words_;  ///< tie_sign_words(tie_break_seed_, dimension).
  std::deque<hdc::PackedHypervector> packed_rank_cache_;
  std::deque<hdc::PackedHypervector> packed_label_cache_;
  /// round_tie_cache_[round][rank]: the tie words of message-passing round
  /// `round` for the vertex of centrality rank `rank`, derived on first use
  /// (empty until then).
  std::vector<std::vector<std::vector<std::uint64_t>>> round_tie_cache_;
};

/// Encodes every sample of `dataset` in parallel over the process-wide
/// thread pool (parallel/thread_pool.hpp).  Chunk 0 runs on the caller
/// thread and uses `primary` (so its lazily grown basis caches keep warming
/// up, as in the serial path); every other chunk owns a private encoder
/// built from primary.config().  Basis rows and tie words are
/// seed-deterministic, so the resulting hypervectors are bit-identical to
/// the serial loop at any thread count.  Vertex labels are bound in exactly when
/// config.use_vertex_labels is set *and* the dataset carries labels —
/// the shared contract of fit/predict_batch/evaluate (GraphHdModel) and
/// core::predict_dataset.
[[nodiscard]] std::vector<hdc::PackedHypervector> encode_dataset_packed(
    GraphHdEncoder& primary, const data::GraphDataset& dataset);

/// encode_dataset_packed with every encoding unpacked to bipolar components.
[[nodiscard]] std::vector<hdc::Hypervector> encode_dataset(GraphHdEncoder& primary,
                                                           const data::GraphDataset& dataset);

}  // namespace graphhd::core
