/// \file stream.hpp
/// Streaming graph ingestion: datasets produced one graph at a time.
///
/// The materialized GraphDataset path requires the whole workload in memory
/// before fit() can start — fine for the paper's benchmarks (hundreds of
/// graphs of ~100 vertices), a dead end for the million-edge R-MAT/geometric
/// workloads the scale generators produce.  GraphStream is the pull
/// interface that bounds memory to one chunk: GraphHdModel::fit_stream /
/// predict_stream (core/model.hpp) pull fixed-size chunks, encode them in
/// parallel over the process pool, and discard them.  Every implementation
/// here is deterministic and resettable, and a stream replayed through
/// next_chunk() materializes to exactly the dataset its source describes —
/// which is what makes the streaming pipeline bit-identical to the
/// materialized one (tests/test_stream.cpp).
///
/// Implementations:
///   DatasetStream    view over an in-memory GraphDataset (adapter);
///   GeneratorStream  graphs drawn from a factory with per-index derived
///                    seeds (chunking/order independent);
///   TUDatasetStream  incremental TUDataset-directory reader, O(graphs +
///                    largest graph) memory instead of O(dataset);
///   FilteredStream   replay of an index subset of another stream (the
///                    per-fold adapter of the streaming k-fold protocol);
///   ReplayableStream re-opens a non-rewindable source through a caller
///                    factory on every reset();
///   ShardedStream    round-robin index partition of another stream — the
///                    shard decomposition of sharded map-reduce training
///                    (core/model.hpp).
///
/// TUDatasetWriter is the write-side counterpart: it appends one graph at a
/// time to a TUDataset directory without ever holding the dataset
/// (save_tudataset is a loop over it).

#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "hdc/random.hpp"

namespace graphhd::data {

/// One labeled sample pulled from a stream.  `vertex_labels` is empty when
/// the source carries none (its size must equal the graph's vertex count
/// otherwise).
struct StreamSample {
  Graph graph;
  std::size_t label = 0;
  std::vector<std::size_t> vertex_labels;
};

/// Pull interface over a sequence of labeled graphs.
class GraphStream {
 public:
  virtual ~GraphStream() = default;

  /// Next sample, or nullopt when the stream is exhausted.
  [[nodiscard]] virtual std::optional<StreamSample> next() = 0;

  /// Rewinds to the first sample.  Required by fit_stream: retraining
  /// epochs replay the stream instead of keeping every encoding around.
  virtual void reset() = 0;

  /// Number of classes the labels are drawn from (known up front — model
  /// construction needs it before the first sample is pulled).
  [[nodiscard]] virtual std::size_t num_classes() const = 0;

  /// Total sample count when known; nullopt for unbounded sources.
  [[nodiscard]] virtual std::optional<std::size_t> size_hint() const { return std::nullopt; }

  /// Per-sample labels of the whole stream *without* materializing graphs,
  /// when the source can produce them cheaply (label columns read up front,
  /// header-only file scans, arithmetic label schedules).  Must not disturb
  /// the stream position.  nullopt means callers fall back to a full replay
  /// — see collect_labels().
  [[nodiscard]] virtual std::optional<std::vector<std::size_t>> label_scan() {
    return std::nullopt;
  }
};

/// Pass 1 of two-pass streaming protocols (e.g. streaming k-fold CV): the
/// per-sample labels of the whole stream, via the source's label_scan() fast
/// path when available, otherwise by replaying the stream and dropping the
/// graphs.  The stream is left reset either way.
[[nodiscard]] std::vector<std::size_t> collect_labels(GraphStream& stream);

/// Pulls up to `max_graphs` samples into an in-memory chunk.  Vertex labels
/// are attached when the pulled samples carry them (mixing labeled and
/// unlabeled samples within one chunk throws std::runtime_error).
[[nodiscard]] GraphDataset next_chunk(GraphStream& stream, std::size_t max_graphs,
                                      const std::string& name = "chunk");

/// Double-buffered next_chunk puller, the chunk source of every streaming
/// fit and predict pass: with prefetch on, chunk N+1 is pulled and parsed on
/// one background thread while the caller encodes chunk N.  The stream is
/// only ever touched by the single in-flight task (or, between tasks, by
/// nobody), so stream access stays strictly serialized and the produced
/// chunk sequence is identical to the synchronous pull.
class ChunkFetcher {
 public:
  ChunkFetcher(GraphStream& stream, std::size_t chunk, bool prefetch);
  ChunkFetcher(const ChunkFetcher&) = delete;
  ChunkFetcher& operator=(const ChunkFetcher&) = delete;
  /// Drains the in-flight pull so the stream is never touched after the
  /// fetcher is gone; destruction is abandonment, so its errors are moot.
  ~ChunkFetcher();

  /// Next chunk in stream order; empty = exhausted.  Pull errors (parse
  /// failures, I/O) rethrow here, on the caller's thread.
  [[nodiscard]] GraphDataset next();

 private:
  [[nodiscard]] std::future<GraphDataset> launch();

  GraphStream& stream_;
  std::size_t chunk_;
  bool prefetch_;
  std::future<GraphDataset> pending_;
};

/// Drains the whole stream into one dataset (reset first, then pull to the
/// end) — the materialization used by equivalence tests and small callers.
[[nodiscard]] GraphDataset materialize(GraphStream& stream, const std::string& name = "stream");

/// Adapter: streams an in-memory dataset (no copy until samples are pulled).
/// The dataset must outlive the stream.
class DatasetStream final : public GraphStream {
 public:
  explicit DatasetStream(const GraphDataset& dataset) : dataset_(&dataset) {}

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override { position_ = 0; }
  [[nodiscard]] std::size_t num_classes() const override { return dataset_->num_classes(); }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return dataset_->size();
  }
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override {
    return dataset_->labels();
  }

 private:
  const GraphDataset* dataset_;
  std::size_t position_ = 0;
};

/// Streams graphs drawn from a factory.  Sample i gets label i % num_classes
/// and an Rng seeded with derive_seed(seed, i), so the produced sequence is
/// independent of chunk sizes, pull order and thread counts — replaying the
/// stream always yields bit-identical graphs.
class GeneratorStream final : public GraphStream {
 public:
  /// \param factory invoked as factory(index, label, rng) for each sample.
  using Factory = std::function<Graph(std::size_t, std::size_t, hdc::Rng&)>;

  GeneratorStream(std::size_t count, std::size_t num_classes, std::uint64_t seed,
                  Factory factory);

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override { position_ = 0; }
  [[nodiscard]] std::size_t num_classes() const override { return num_classes_; }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override { return count_; }
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override;

 private:
  std::size_t count_;
  std::size_t num_classes_;
  std::uint64_t seed_;
  Factory factory_;
  std::size_t position_ = 0;
};

/// Incremental TUDataset-directory reader.
///
/// Holds O(num_graphs + distinct labels + current graph) state: the graph
/// label column and the node-label value map are read up front (model
/// construction needs num_classes, and TUDataset node labels densify by
/// global numeric order), but adjacency, indicator and node-label rows are
/// consumed line by line as graphs are pulled.  Requires the indicator
/// column to be non-decreasing and the adjacency rows grouped by graph —
/// the canonical layout every known TUDataset dump (and save_tudataset /
/// TUDatasetWriter) uses; anything else throws std::runtime_error rather
/// than silently reordering.  Produces exactly the samples load_tudataset
/// materializes (labels densified the same way).
class TUDatasetStream final : public GraphStream {
 public:
  TUDatasetStream(const std::filesystem::path& directory, const std::string& name);

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override;
  [[nodiscard]] std::size_t num_classes() const override { return num_classes_; }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override { return labels_.size(); }
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override {
    return labels_;
  }

  /// Densified per-graph labels (read up front — they are the one column
  /// that cannot stream).  Lets callers score streamed predictions without
  /// replaying the graphs.
  [[nodiscard]] const std::vector<std::size_t>& labels() const noexcept { return labels_; }

 private:
  struct Cursor;  // file positions + per-graph progress (defined in stream.cpp)

  std::filesystem::path directory_;
  std::string name_;
  std::vector<std::size_t> labels_;  ///< densified graph labels, one per graph.
  std::size_t num_classes_ = 0;
  bool has_node_labels_ = false;
  std::vector<long long> node_label_map_keys_;  ///< sorted raw node-label values.
  std::shared_ptr<Cursor> cursor_;
};

/// Replay adapter over a subset of another stream: yields exactly the
/// source samples whose index (position in source order) is set in `keep`,
/// in source order.  This is the per-fold building block of the streaming
/// k-fold protocol (eval/cross_validation.hpp): one FoldPlan mask per
/// train/test side, O(num_samples) bits of state, graphs never retained.
///
/// The source must outlive the adapter and is shared, not owned: reset()
/// resets the source, so interleaving pulls through two FilteredStreams over
/// one source is undefined — run them sequentially (each fold/epoch replays
/// from the start anyway).  A source yielding more samples than keep.size()
/// throws std::runtime_error: the mask was planned against a stream of a
/// different length.
class FilteredStream final : public GraphStream {
 public:
  /// \param num_classes advertised class count; defaults to the source's.
  ///   Fold training subsets pass the subset's own class count so streamed
  ///   models are shaped exactly like ones fit on the materialized subset.
  FilteredStream(GraphStream& source, std::vector<bool> keep,
                 std::optional<std::size_t> num_classes = std::nullopt);

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override;
  [[nodiscard]] std::size_t num_classes() const override { return num_classes_; }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override { return kept_count_; }
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override;

 private:
  GraphStream* source_;
  std::vector<bool> keep_;
  std::size_t num_classes_ = 0;
  std::size_t kept_count_ = 0;
  std::size_t source_position_ = 0;
};

/// Factory producing a fresh, independently positioned stream over one
/// source.  ReplayableStream uses it to rewind non-rewindable sources;
/// GraphHdModel::fit_stream_sharded uses W of them so shard workers can pull
/// concurrently without sharing a cursor.
using StreamOpener = std::function<std::unique_ptr<GraphStream>()>;

/// Re-openable adapter for sources that cannot rewind in place: every
/// reset() asks `opener` for a fresh stream (e.g. re-running a query,
/// re-opening a socket dump).  fit_stream retrain epochs and per-fold CV
/// passes replay through reset(), so any opener-backed source composes with
/// the whole streaming pipeline.  An opener that throws or returns nullptr
/// surfaces as a clean std::runtime_error — a non-re-openable source fails
/// loudly instead of silently truncating a replay.  The re-opened stream
/// must agree with the first one on num_classes (checked).
class ReplayableStream final : public GraphStream {
 public:
  using Opener = StreamOpener;

  /// Opens eagerly (num_classes must be known before the first pull).
  explicit ReplayableStream(Opener opener);

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override;
  [[nodiscard]] std::size_t num_classes() const override { return num_classes_; }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override;
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override;

 private:
  [[nodiscard]] std::unique_ptr<GraphStream> open();

  Opener opener_;
  std::unique_ptr<GraphStream> inner_;
  std::size_t num_classes_ = 0;
};

/// Round-robin index partition of another stream: shard s of W yields
/// exactly the source samples whose index (position in source order)
/// satisfies index % W == s, in source order.  The partitioner of sharded
/// fits (core/model.hpp): the W shards are disjoint, cover
/// the source, and each is itself an ordinary GraphStream, so a per-shard
/// model fit over shard s sees a deterministic sample subsequence no matter
/// how the other shards are scheduled.
///
/// Two ownership modes mirror FilteredStream/ReplayableStream:
///  * borrowing — the source must outlive the adapter and is shared;
///    interleaving pulls through two borrowing shards of one source is
///    undefined (reset() rewinds the source).  Use for sequential replay.
///  * owning (opener) — each shard opens its own source instance, so W
///    shards pull concurrently without sharing a cursor.
class ShardedStream final : public GraphStream {
 public:
  /// Borrowing adapter over `source` (shard `shard` of `num_shards`).
  ShardedStream(GraphStream& source, std::size_t shard, std::size_t num_shards);

  /// Owning adapter: `opener` is invoked once up front (and again on every
  /// reset through the owned ReplayableStream machinery).
  ShardedStream(StreamOpener opener, std::size_t shard, std::size_t num_shards);

  [[nodiscard]] std::optional<StreamSample> next() override;
  void reset() override;
  [[nodiscard]] std::size_t num_classes() const override { return source_->num_classes(); }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override;
  [[nodiscard]] std::optional<std::vector<std::size_t>> label_scan() override;

  [[nodiscard]] std::size_t shard() const noexcept { return shard_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

 private:
  std::unique_ptr<GraphStream> owned_;  ///< null in borrowing mode.
  GraphStream* source_;
  std::size_t shard_;
  std::size_t num_shards_;
  std::size_t source_position_ = 0;
};

/// Append-only TUDataset-directory writer, and the one writer of the format:
/// save_tudataset appends every graph of a dataset through it.  The
/// node-labels file is written when every graph with vertices carries vertex
/// labels.
class TUDatasetWriter {
 public:
  TUDatasetWriter(const std::filesystem::path& directory, const std::string& name);

  /// Appends one graph.  Pass `vertex_labels` either for every graph or for
  /// none (checked; a half-labeled directory would not load).
  void append(const Graph& graph, std::size_t label,
              std::span<const std::size_t> vertex_labels = {});

  [[nodiscard]] std::size_t graphs_written() const noexcept { return graphs_written_; }

  /// Flushes and closes the files; throws std::runtime_error on stream
  /// failure.  Called by the destructor (errors swallowed there).
  void close();

  ~TUDatasetWriter();
  TUDatasetWriter(const TUDatasetWriter&) = delete;
  TUDatasetWriter& operator=(const TUDatasetWriter&) = delete;

 private:
  std::filesystem::path directory_;
  std::string name_;
  std::ofstream adjacency_out_;
  std::ofstream indicator_out_;
  std::ofstream labels_out_;
  std::ofstream node_labels_out_;  ///< opened lazily on the first labeled append.
  std::size_t graphs_written_ = 0;
  std::size_t global_vertex_base_ = 0;
  bool closed_ = false;
  std::optional<bool> writes_vertex_labels_;  ///< fixed by the first append.
};

}  // namespace graphhd::data
