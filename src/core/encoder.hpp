/// \file encoder.hpp
/// The GraphHD encoder: graphs -> hypervectors (Section IV of the paper).
///
/// Pipeline per graph:
///   1. PageRank (fixed iteration count) -> per-vertex centrality *ranks*;
///   2. vertex hypervector  Encv(v) = ItemMemory[rank(v)]
///      (optionally bound with a label hypervector — extension VII.2);
///   3. edge hypervector    Ence((u,v)) = Encv(u) × Encv(v)  (binding);
///   4. graph hypervector   EncG(G) = [ Σ_e Ence(e) ]        (bundling).
///
/// Graphs without edges fall back to bundling the vertex hypervectors (the
/// paper's encoder is undefined for m = 0; see DESIGN.md).
///
/// encode() produces the dense bipolar representation (the paper-exact
/// reference), encode_packed() the bit-packed binary one that the trainer
/// and every predict path use.  The two are exact images of each other —
/// encode_packed(g) is always bit-identical to
/// PackedHypervector::from_bipolar(encode(g)) — but the packed baseline path
/// (no labels, no message passing) never materializes a bipolar vector.

#pragma once

#include <span>
#include <vector>

#include <deque>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "hdc/bitslice.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"

namespace graphhd::core {

using graph::Graph;
using hdc::Hypervector;

/// Stateful encoder: owns the basis item memories (vertex ranks and vertex
/// labels), which grow lazily and deterministically from the config seed.
/// The same config therefore encodes the same graph to the same hypervector
/// in any process, which is what makes train/test encodings compatible.
class GraphHdEncoder {
 public:
  /// Hard cap on the packed rank-basis cache (entries).  The dense rank
  /// memory must grow with the largest graph seen (references into it are
  /// handed out), but the packed mirror is a pure cache — without a cap it
  /// would silently double the basis memory footprint on huge graphs.
  /// 1024 entries at d = 10,000 is ~1.3 MB; ranks beyond the cap are packed
  /// into per-call scratch storage instead.
  static constexpr std::size_t kPackedRankCacheCap = 1024;

  explicit GraphHdEncoder(const GraphHdConfig& config);

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }

  /// Encodes one graph (structure only — the paper's baseline).
  [[nodiscard]] Hypervector encode(const Graph& graph);

  /// Encodes one graph with vertex labels (extension VII.2); `labels` must
  /// have one entry per vertex.  Only used when config.use_vertex_labels.
  [[nodiscard]] Hypervector encode(const Graph& graph, std::span<const std::size_t> labels);

  /// Encodes one graph straight into the packed binary representation.
  /// The structure-only baseline path runs
  /// entirely on packed words (XOR bind + bit-sliced majority); the
  /// extension paths (labels, message passing, bitslice disabled) fall back
  /// to packing the dense encoding.  Always bit-identical to
  /// from_bipolar(encode(...)).
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph);

  /// Packed encoding with vertex labels (extension VII.2).
  [[nodiscard]] hdc::PackedHypervector encode_packed(const Graph& graph,
                                                     std::span<const std::size_t> labels);

  /// The centrality ranks the encoder assigns to `graph`'s vertices
  /// (exposed for tests and diagnostics).
  [[nodiscard]] std::vector<std::size_t> vertex_ranks(const Graph& graph) const;

  /// Basis hypervector for centrality rank `rank` (exposed for tests).
  [[nodiscard]] const Hypervector& rank_basis(std::size_t rank);

  /// Entries currently held by the packed rank-basis cache (always
  /// <= kPackedRankCacheCap; exposed for the cache-bound regression tests).
  [[nodiscard]] std::size_t packed_rank_cache_size() const noexcept {
    return packed_rank_cache_.size();
  }

 private:
  [[nodiscard]] Hypervector encode_impl(const Graph& graph,
                                        std::span<const std::size_t> labels);
  /// Structure-only fast path: XOR binding + bit-sliced majority bundling
  /// (bit-identical to the reference path; see hdc/bitslice.hpp).
  [[nodiscard]] Hypervector encode_bitslice(const Graph& graph,
                                            std::span<const std::size_t> ranks);
  /// Fills `bundler` with the packed edge (or, for edgeless graphs, vertex)
  /// encodings — the shared core of the bitslice and packed paths.
  void bundle_packed(const Graph& graph, std::span<const std::size_t> ranks,
                     hdc::BitsliceBundler& bundler);
  /// Packed copy of rank basis vector `rank` (cached; requires
  /// rank < kPackedRankCacheCap).
  [[nodiscard]] const hdc::PackedHypervector& packed_rank_basis(std::size_t rank);

  GraphHdConfig config_;
  hdc::ItemMemory rank_memory_;
  hdc::ItemMemory label_memory_;
  std::deque<hdc::PackedHypervector> packed_rank_cache_;
  std::uint64_t tie_break_seed_;
};

/// Encodes every sample of `dataset` in parallel over the process-wide
/// thread pool (parallel/thread_pool.hpp).  Chunk 0 runs on the caller
/// thread and uses `primary` (so its lazily grown basis caches keep warming
/// up, as in the serial path); every other chunk owns a private encoder
/// built from primary.config().  Basis memories are seed-deterministic, so
/// the resulting hypervectors are bit-identical to the serial loop at any
/// thread count.  Vertex labels are bound in exactly when
/// config.use_vertex_labels is set *and* the dataset carries labels —
/// the shared contract of fit/predict_batch/evaluate (GraphHdModel) and
/// core::predict_dataset.
[[nodiscard]] std::vector<hdc::Hypervector> encode_dataset(GraphHdEncoder& primary,
                                                           const data::GraphDataset& dataset);

/// Packed-output counterpart of encode_dataset (same chunking and
/// determinism guarantees; only the output representation differs).
[[nodiscard]] std::vector<hdc::PackedHypervector> encode_dataset_packed(
    GraphHdEncoder& primary, const data::GraphDataset& dataset);

}  // namespace graphhd::core
