/// \file snapshot.hpp
/// Immutable inference snapshot — the read-only half of the trainer/serving
/// split.
///
/// A GraphHdModel owns *mutable* training state: signed-counter accumulators
/// that fit/partial_fit/retraining keep updating.  Serving wants the
/// opposite: a frozen, self-contained view of the finalized class vectors
/// that many threads can query concurrently and that a server can swap
/// atomically when a newer model lands.  InferenceSnapshot is that view:
///
///  * config + class layout (num_classes, vectors_per_class slots);
///  * the finalized packed class words (the majority-quantized class
///    vectors, 64 components per machine word) plus a row-pointer table for
///    the batched one-vs-all Hamming kernel;
///  * the raw signed counters (needed by the non-quantized scoring mode and
///    to upgrade a snapshot back into a trainer);
///  * per-slot metadata (sample count, add count, tie parity) and the
///    replica cursors, so a snapshot round-trips through the v3 artifact
///    without consulting the trainer again.
///
/// Queries are packed words; quantized_model alone picks the scoring.
/// Quantized models score with XOR + popcount against the packed class words
/// and hdc::similarity_from_hamming — bit-identical doubles to the paper's
/// bipolar cosine (dot == d - 2h on bipolar data); the others score the
/// counter rows with hdc::counter_cosine, the trainer's own rule.  Either
/// way a snapshot's QueryResult is bit-identical to the trainer's.
///
/// Storage is either owned (built from a trainer or a full artifact read) or
/// *borrowed* from a memory-mapped v3 artifact, kept alive by a shared
/// handle — the zero-copy cold-start path (core/serialize.hpp).  Snapshots
/// are shared via std::shared_ptr<const InferenceSnapshot>; publishing a new
/// one is a pointer swap (the hot-swap primitive an inference server needs).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/options.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/packed.hpp"

namespace graphhd::core {

/// Classification result with per-class scores.
struct Prediction {
  std::size_t label = 0;
  double score = 0.0;                 ///< similarity of the winning prototype.
  std::vector<double> class_scores;   ///< best prototype similarity per class.
};

/// Immutable, self-contained inference view of a trained GraphHD model.
class InferenceSnapshot {
 public:
  /// Per-slot training metadata carried through the artifact (sample_count
  /// feeds class_counts()/model upgrade; add_count and tie_free reconstruct
  /// the accumulator's threshold behaviour exactly).
  struct SlotMeta {
    std::uint64_t sample_count = 0;
    std::uint64_t add_count = 0;
    bool tie_free = false;
  };

  /// Owning constructor: adopts counter and word buffers (trainer snapshot,
  /// full artifact read).  `counters` holds slots() x dimension int32 values
  /// row-major; `packed_words` holds slots() x words_per_slot() words.
  InferenceSnapshot(GraphHdConfig config, std::size_t num_classes, bool fitted,
                    std::vector<std::size_t> replica_cursors, std::vector<SlotMeta> slot_meta,
                    std::vector<std::int32_t> counters, std::vector<std::uint64_t> packed_words);

  /// Borrowing constructor (zero-copy mmap): `counters` and `packed_words`
  /// point into memory owned by `storage` (e.g. a mapped v3 artifact), which
  /// the snapshot keeps alive for its own lifetime.  Both pointers must be
  /// naturally aligned for their element type — the v3 format 8-byte-aligns
  /// every section precisely so a mapped file satisfies this.
  InferenceSnapshot(GraphHdConfig config, std::size_t num_classes, bool fitted,
                    std::vector<std::size_t> replica_cursors, std::vector<SlotMeta> slot_meta,
                    const std::int32_t* counters, const std::uint64_t* packed_words,
                    std::shared_ptr<const void> storage);

  // Immutable by construction: no copies (share the shared_ptr instead).
  InferenceSnapshot(const InferenceSnapshot&) = delete;
  InferenceSnapshot& operator=(const InferenceSnapshot&) = delete;

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t dimension() const noexcept { return config_.dimension; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  /// Class slots: num_classes * vectors_per_class.
  [[nodiscard]] std::size_t slots() const noexcept { return slot_meta_.size(); }
  /// Packed words per class slot: ceil(dimension / 64).
  [[nodiscard]] std::size_t words_per_slot() const noexcept { return words_per_slot_; }
  [[nodiscard]] const std::vector<std::size_t>& replica_cursors() const noexcept {
    return replica_cursors_;
  }
  [[nodiscard]] const SlotMeta& slot_meta(std::size_t slot) const;

  /// Raw signed counters of one slot (dimension int32 values).
  [[nodiscard]] std::span<const std::int32_t> counters(std::size_t slot) const;
  /// Finalized packed class words of one slot (words_per_slot() words).
  [[nodiscard]] std::span<const std::uint64_t> packed_words(std::size_t slot) const;
  /// Number of training samples folded into each class.
  [[nodiscard]] std::vector<std::size_t> class_counts() const;
  /// Inference-time working set: packed class rows only (the IoT footprint
  /// the paper argues for): slots * ceil(d / 8) bytes.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

  /// Classifies a packed query against every class slot: one batched XOR +
  /// popcount kernel pass for a quantized model, hdc::counter_cosine over
  /// the counter rows otherwise (owned and mmap-borrowed rows alike).
  [[nodiscard]] hdc::QueryResult query(const hdc::PackedHypervector& query_hv) const;

  /// query(PackedHypervector::from_bipolar(query_hv)).
  [[nodiscard]] hdc::QueryResult query(const hdc::Hypervector& query_hv) const;

  /// Maps a slot-level QueryResult to a class-level Prediction (max over a
  /// class's vectors_per_class prototypes).
  [[nodiscard]] Prediction prediction_from(const hdc::QueryResult& result) const;

  /// query + prediction_from in one call.
  [[nodiscard]] Prediction predict_encoded(const hdc::PackedHypervector& encoded) const;
  [[nodiscard]] Prediction predict_encoded(const hdc::Hypervector& encoded) const;

  /// Coalesced batch classification — the serving hot path (src/serve/).
  /// `query_rows[q]` points at the words_per_slot() packed words of query q;
  /// `out[q]` receives its Prediction.  Instead of one kernel launch per
  /// query, the batch makes one hamming_batch sweep per class row: each
  /// slot's packed words are streamed once against *every* query, so per-
  /// query kernel setup, distance-buffer allocation and snapshot row traffic
  /// amortize over the batch.  The distances are the same exact integers and
  /// the slot scan order is unchanged, so every Prediction is bit-identical
  /// to predict_encoded on that query alone.  A counter-scoring model
  /// scores each query with query()'s counter cosine.
  void predict_encoded_batch(const std::uint64_t* const* query_rows, std::size_t count,
                             Prediction* out) const;

  /// Convenience overload over whole PackedHypervectors (all must have
  /// dimension() components; throws std::invalid_argument otherwise).
  [[nodiscard]] std::vector<Prediction> predict_encoded_batch(
      std::span<const hdc::PackedHypervector> queries) const;

 private:
  void init_rows_and_validate();
  /// query() on ceil(dimension / 64) packed words.
  [[nodiscard]] hdc::QueryResult query_words(const std::uint64_t* words) const;

  GraphHdConfig config_;
  std::size_t num_classes_ = 0;
  bool fitted_ = false;
  std::size_t words_per_slot_ = 0;
  std::vector<std::size_t> replica_cursors_;
  std::vector<SlotMeta> slot_meta_;

  /// Owned buffers (empty when borrowing from `storage_`).
  std::vector<std::int32_t> owned_counters_;
  std::vector<std::uint64_t> owned_words_;
  /// Keep-alive handle for borrowed storage (e.g. an mmap'd artifact).
  std::shared_ptr<const void> storage_;

  const std::int32_t* counters_base_ = nullptr;
  const std::uint64_t* words_base_ = nullptr;
  /// Row-pointer table into the packed words for the batched distance kernel.
  std::vector<const std::uint64_t*> rows_;
};

/// True when `a` and `b` agree on every field the encoder depends on
/// (dimension, seed, identifier, PageRank knobs, labels, rounds, bitslice,
/// backend): a graph encodes to the same bits under either config, so an
/// encoder built for one serves the other (the contract of
/// serve::Server::swap).  The class layout may differ.
[[nodiscard]] bool encoder_compatible(const GraphHdConfig& a, const GraphHdConfig& b) noexcept;

/// Encodes every sample of `dataset` (encode_dataset_packed: in parallel,
/// labels bound as the trainer binds them) and classifies each against
/// `snapshot` — the shared body of the trainer's batch and stream predict
/// paths.  Bit-identical at any thread count.
[[nodiscard]] std::vector<Prediction> predict_dataset(const InferenceSnapshot& snapshot,
                                                      GraphHdEncoder& encoder,
                                                      const data::GraphDataset& dataset);

/// Streaming counterpart of predict_dataset and the body of the
/// predict_stream paths: resets `stream`, pulls options.chunk graphs at a
/// time through a data::ChunkFetcher (prefetching the next chunk when
/// options.prefetch is set), predicts each chunk with predict_dataset and
/// hands every prediction to `sink` in stream order (`index` counts samples
/// from 0).  `snapshot` is held for the whole pass, so a concurrent swap of
/// the caller's pointer cannot mix models within a stream.  Bit-identical to
/// predict_dataset on the materialized stream.
void predict_stream_chunks(std::shared_ptr<const InferenceSnapshot> snapshot,
                           GraphHdEncoder& encoder, data::GraphStream& stream,
                           const StreamOptions& options,
                           const std::function<void(std::size_t, const Prediction&)>& sink);

/// predict_stream_chunks collected into one vector (the per-sample
/// Prediction is a few doubles — the graphs are still streamed).
[[nodiscard]] std::vector<Prediction> collect_stream_predictions(
    std::shared_ptr<const InferenceSnapshot> snapshot, GraphHdEncoder& encoder,
    data::GraphStream& stream, const StreamOptions& options);

}  // namespace graphhd::core
