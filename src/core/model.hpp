/// \file model.hpp
/// The trained GraphHD model: class prototypes + inference (Algorithm 1 and
/// Section III-C of the paper), plus the Section VII extensions.

#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/encoder.hpp"
#include "core/options.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "hdc/assoc_memory.hpp"

namespace graphhd::core {

/// GraphHD model over `num_classes` classes.
///
/// Training is a single pass: encode each training graph and bundle it into
/// its class prototype (Algorithm 1).  Optional extensions:
///  - retraining (config.retrain_epochs > 0): perceptron-style passes that
///    add mispredicted samples to their true class and subtract them from
///    the predicted class;
///  - multiple prototypes per class (config.vectors_per_class > 1): samples
///    are dealt round-robin onto prototypes; queries take the max.
/// The model also supports true online learning via partial_fit.
///
/// One code path serves every config: graphs are encoded straight into
/// packed words (GraphHdEncoder::encode_packed, bit-identical to packing the
/// paper's bipolar encoding) and bundled into one signed-counter class
/// memory; config.quantized_model alone picks Hamming scoring against the
/// majority-quantized class vectors or cosine scoring against the raw
/// counters.  config.backend is a recorded tag that changes neither
/// (tests/test_backend.cpp).
///
/// The model is the *trainer* half of the trainer/serving split
/// (core/snapshot.hpp): every external predict path runs off snapshot(), an
/// immutable InferenceSnapshot rebuilt lazily after mutations, so model
/// predictions and snapshot predictions are one code path and bit-identical
/// by construction.
class GraphHdModel {
 public:
  GraphHdModel(const GraphHdConfig& config, std::size_t num_classes);

  [[nodiscard]] const GraphHdConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] GraphHdEncoder& encoder() noexcept { return encoder_; }

  /// Full training pass (Algorithm 1 + configured extensions).  May be
  /// called once per model; throws on a second call.
  void fit(const data::GraphDataset& train);

  /// Streaming training: pulls `options.chunk` graphs at a time from the
  /// stream, encodes each chunk in parallel (same chunk-0/private-encoder
  /// contract as fit) and bundles it, so peak memory is O(chunk), not
  /// O(dataset).  When config.retrain_epochs > 0 the stream is reset() and
  /// re-encoded once per epoch instead of caching every encoding.  Because
  /// the encoders are seed-deterministic and bundling order equals stream
  /// order, the trained state — and therefore every later prediction — is
  /// bit-identical to fit() on the materialized dataset, at any chunk size,
  /// thread count and kernel variant (tests/test_stream.cpp,
  /// bench/stress_stream.cpp).
  ///
  /// Beyond the chunk size, TrainOptions adds:
  ///  - options.prefetch: pull/parse chunk N+1 on a background thread while
  ///    chunk N encodes (bit-identical either way);
  ///  - options.shards > 1: the sharded map-reduce fit of fit_stream_sharded,
  ///    one shard view at a time — a borrowed stream has a single cursor,
  ///    so options.workers must then be 1 (std::invalid_argument otherwise);
  ///  - options.checkpoint / checkpoint_interval / resume: periodically
  ///    persist the counter state during the bundling pass and resume a
  ///    killed ingest from the last checkpoint — the resumed model is
  ///    bit-identical to an uninterrupted fit (core/serialize.hpp,
  ///    tests/test_checkpoint.cpp).  The checkpoint file is removed on
  ///    successful completion.
  /// A fit that throws leaves the model as it found it (counters, replica
  /// cursors, fitted flag), so a retry on the same instance equals a clean
  /// fit.  The same holds for fit_stream_sharded, fit_stream_shard and
  /// finish_training.
  void fit_stream(data::GraphStream& stream, const TrainOptions& options = {});

  /// Sharded map-reduce training over a re-openable source: partitions the
  /// stream round-robin into `options.shards` disjoint shard views
  /// (data::ShardedStream — sample i belongs to shard i % W), bundles each
  /// shard into a private model and merge()s it into *this as soon as it
  /// finishes.  Because bundling is counter addition — commutative and
  /// associative — the merged counters are *exactly* the serial fit_stream
  /// counters at any shard count and in any completion order; replica
  /// assignment (vectors_per_class > 1) is kept serial-identical by
  /// precomputing each sample's replica from the global label order.
  /// Retraining (inherently sequential) then runs serially on the merged
  /// model, so the final model is bit-identical to serial fit_stream end to
  /// end.  With options.checkpoint set, each shard checkpoints to
  /// `<checkpoint>.shard<k>` and a killed run resumes shard by shard (a
  /// one-shard fit checkpoints to `<checkpoint>` itself).
  ///
  /// Every replay re-opens the source through `opener`, which also unlocks
  /// options.workers != 1: up to that many shard workers (0 = auto) each
  /// pull a private owning ShardedStream, so at most `workers` shard models
  /// are alive at once, and the opener must be thread-safe.  fit_stream with
  /// options.shards > 1 runs the same loop over a borrowed stream.
  void fit_stream_sharded(const data::StreamOpener& opener, const TrainOptions& options);

  /// Distributed building block: bundles ONLY shard `shard_index` of the
  /// `options.shards`-way round-robin partition of `stream` into *this —
  /// what one machine of a multi-machine fit runs.  The stream is the FULL
  /// training stream (every machine sees the same one); replica assignment
  /// (vectors_per_class > 1) is precomputed from the global label order so
  /// the shard bundles into exactly the slots a one-process fit would.  No
  /// retraining runs and the model stays unfitted; persist the result with
  /// save_checkpoint(model, returned_progress, path), ship the per-shard
  /// files to one place, and combine them with core::merge_checkpoint_files
  /// followed by finish_training.  Returns the shard's progress (samples
  /// bundled, bundle_complete, and the {shards, shard_index} topology).
  /// options.checkpoint, when set, is used as-is for this shard's mid-run
  /// crash checkpoints (no `.shard<k>` suffix — the file is per-machine).
  CheckpointProgress fit_stream_shard(data::GraphStream& stream, std::size_t shard_index,
                                      const TrainOptions& options);

  /// Completes training on a bundled-but-unfitted model (the output of
  /// core::merge_checkpoint_files, or a resumed bundle-complete checkpoint):
  /// runs the sequential retraining epochs over `stream` and marks the model
  /// fitted.  Applied to the exact merged counters this reproduces the
  /// one-process sharded fit byte for byte.  Throws std::logic_error when
  /// the model is already fitted.
  void finish_training(data::GraphStream& stream, const StreamOptions& options = {});

  /// Folds another model trained on disjoint (or overlapping — the merge is
  /// a plain counter sum) samples into *this: per-slot counter addition,
  /// sample/add counts summed, replica cursors advanced modulo
  /// vectors_per_class, fitted flags OR-ed.  Exact: querying the merged
  /// model equals querying one trained on both sample sets in any
  /// interleaving (commutative and associative — see
  /// hdc::BundleAccumulator::merge and tests/test_merge.cpp).  Configs must
  /// compare equal and class counts match; throws std::invalid_argument
  /// otherwise.  Note retraining is *not* merge-distributive: merge bundled
  /// models first, then retrain the merged model.
  void merge(GraphHdModel&& other);

  /// Online update with one labeled sample (usable before or after fit).
  void partial_fit(const graph::Graph& graph, std::size_t label);

  /// Predicts one graph.
  [[nodiscard]] Prediction predict(const graph::Graph& graph);

  /// Predicts every sample of a dataset (same order).  Graphs are encoded in
  /// parallel over the process-wide thread pool (parallel/thread_pool.hpp);
  /// the encoders are seed-deterministic and each sample is independent, so
  /// results are bit-identical at any thread count.  Samples are encoded
  /// exactly as fit()/evaluate() encode them — in particular, when
  /// config.use_vertex_labels is set and `test` carries vertex labels they
  /// are bound in, which single-graph predict() (no label argument) cannot
  /// do.
  [[nodiscard]] std::vector<Prediction> predict_batch(const data::GraphDataset& test);

  /// Streaming prediction: pulls `options.chunk` graphs at a time, encodes
  /// and queries each chunk in parallel, and hands every prediction to
  /// `sink` in stream order (`index` counts samples from 0).  Bounded
  /// memory — graphs and encodings are dropped after their chunk; with
  /// options.prefetch the next chunk is pulled while the current one
  /// encodes.  Bit-identical to predict_batch on the materialized stream
  /// (the loop is core::predict_stream_chunks).
  void predict_stream(data::GraphStream& stream, const StreamOptions& options,
                      const std::function<void(std::size_t, const Prediction&)>& sink);

  /// Convenience overload collecting the predictions (the per-sample
  /// Prediction is a few doubles — the graphs are still streamed).
  [[nodiscard]] std::vector<Prediction> predict_stream(data::GraphStream& stream,
                                                       const StreamOptions& options = {});

  /// Predicts a pre-encoded hypervector (lets callers amortize encoding).
  /// A bipolar query goes through the snapshot:
  /// `snapshot()->predict_encoded(hv)` gives the same prediction.
  [[nodiscard]] Prediction predict_encoded(const hdc::PackedHypervector& encoded) const;

  /// Batch accuracy against a labeled dataset.
  [[nodiscard]] double evaluate(const data::GraphDataset& test);

  /// The immutable inference view of the current trained state (the
  /// trainer/serving split; see core/snapshot.hpp).  Lazily built under a
  /// lock and cached, so concurrent const calls (predict_encoded from several
  /// threads) build it once and share it.  Any mutation (fit, fit_stream,
  /// partial_fit, restore_state) invalidates the cache, so an already-shared
  /// snapshot keeps serving the old state while the next snapshot() call
  /// publishes the new one — the hot-swap pattern.  Mutations themselves
  /// must not run concurrently with any other call.
  [[nodiscard]] std::shared_ptr<const InferenceSnapshot> snapshot() const;

  /// Number of training samples folded into each class so far.
  [[nodiscard]] std::vector<std::size_t> class_counts() const;

  // ---- persistence hooks (see core/serialize.hpp) ----

  /// The class memory: num_classes * vectors_per_class signed-counter slots.
  [[nodiscard]] const hdc::AssociativeMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] const std::vector<std::size_t>& replica_cursors() const noexcept {
    return next_replica_;
  }

  /// Deserialization hook: replaces the learned state wholesale.  Sizes must
  /// match the model's slot layout (num_classes * vectors_per_class
  /// accumulators/sample counts, num_classes cursors).
  void restore_state(std::vector<hdc::BundleAccumulator> accumulators,
                     std::vector<std::size_t> sample_counts,
                     std::vector<std::size_t> replica_cursors, bool fitted);

 private:
  /// Shared guard of every streaming training entry: rejects a fitted model
  /// or a stream with more classes than the model, then runs `pass`, and if
  /// it throws restores the class memory, replica cursors and fitted flag.
  template <typename Pass>
  auto guarded_pass(const char* who, const data::GraphStream& stream, Pass&& pass);

  /// fit_stream and fit_stream_sharded: every shard through bundle_shards,
  /// the retraining epochs over `stream`, then the checkpoint cleanup.
  void fit_shards(data::GraphStream& stream, const data::StreamOpener* opener,
                  const TrainOptions& options, const char* who);

  /// The one shard loop: bundles shard `only` (default: every shard) of the
  /// options.shards-way round-robin partition of `stream`.  A lone shard
  /// bundles into *this under options.checkpoint; otherwise each shard
  /// bundles into a private model under `<checkpoint>.shard<k>` and merges
  /// into *this as it finishes.  Shards run inline unless `opener` is set
  /// and options.workers != 1.  Rethrows the lowest failed shard's
  /// exception; returns the samples bundled.
  std::size_t bundle_shards(data::GraphStream& stream, const data::StreamOpener* opener,
                            const TrainOptions& options, std::optional<std::size_t> only);

  /// The bundling pass over `stream` with checkpoint/resume handling
  /// (`checkpoint`; empty = off).  `shard_count`/`shard_index` name the
  /// round-robin topology `stream` represents ({1, 0} for a plain fit):
  /// checkpoints record it, and resume rejects a checkpoint written under a
  /// different topology — its consumed-sample prefix indexes a different
  /// view.  `replica_of`, when non-empty, is the serial-identical replica of
  /// every sample of the full stream (global_replica_assignment) and
  /// overrides the round-robin cursor; the cursors still advance so merge()
  /// arithmetic stays exact.  Returns the stream-local samples consumed (the
  /// resumed prefix included).
  std::size_t bundle_stream(data::GraphStream& stream, const TrainOptions& options,
                            const std::filesystem::path& checkpoint,
                            const std::vector<std::size_t>& replica_of, std::size_t shard_count,
                            std::size_t shard_index);

  /// The serial-identical replica assignment of every stream sample (empty
  /// when vectors_per_class == 1 — the cursor path is already exact).
  [[nodiscard]] std::vector<std::size_t> global_replica_assignment(data::GraphStream& stream);

  /// The perceptron retraining passes over `stream` (config_.retrain_epochs).
  void retrain_stream(data::GraphStream& stream, const StreamOptions& options);

  /// Algorithm 1 for one sample: bundles it into prototype `replica` of its
  /// class and advances the class's round-robin cursor.
  void bundle_sample(std::size_t label, std::size_t replica,
                     const hdc::PackedHypervector& encoded);

  /// One perceptron retraining step (extension VII.1a): a mispredicted
  /// sample is added to its best true-class prototype and subtracted from
  /// the winning slot.  Returns whether the sample was mispredicted.
  bool retrain_sample(std::size_t label, const hdc::PackedHypervector& encoded);

  /// Replaces this model's learned state with `source`'s (checkpoint resume).
  /// Configs/class counts must already be verified equal by the caller.
  void adopt_state(const GraphHdModel& source);
  [[nodiscard]] std::size_t slot_of(std::size_t class_id, std::size_t replica) const noexcept {
    return class_id * config_.vectors_per_class + replica;
  }
  [[nodiscard]] std::size_t class_of_slot(std::size_t slot) const noexcept {
    return slot / config_.vectors_per_class;
  }
  /// Best-scoring slot within a class for `encoded`.
  [[nodiscard]] std::size_t best_slot_in_class(const hdc::QueryResult& result,
                                               std::size_t class_id) const;
  /// Drops the cached snapshot; every mutation point calls this.
  void invalidate_snapshot() noexcept { snapshot_.reset(); }

  /// A mutex that keeps its owner copyable and movable: a copied or moved-to
  /// model gets a fresh one.
  struct MovableMutex {
    MovableMutex() = default;
    MovableMutex(const MovableMutex&) noexcept {}
    MovableMutex(MovableMutex&&) noexcept {}
    MovableMutex& operator=(const MovableMutex&) noexcept { return *this; }
    MovableMutex& operator=(MovableMutex&&) noexcept { return *this; }
    std::mutex mutex;
  };

  GraphHdConfig config_;
  std::size_t num_classes_;
  GraphHdEncoder encoder_;
  hdc::AssociativeMemory memory_;
  std::vector<std::size_t> next_replica_;  ///< round-robin cursor per class.
  bool fitted_ = false;
  /// Guards the lazy build of snapshot_ (see snapshot()).
  mutable MovableMutex snapshot_mutex_;
  /// Lazily built inference view of the current state.
  mutable std::shared_ptr<const InferenceSnapshot> snapshot_;
};

/// Upgrades an inference snapshot back into a full trainer: the snapshot
/// carries the raw signed counters and per-slot metadata, which is exactly
/// the restore_state() representation.  Used by the artifact converter and
/// by servers that want to resume training from a served model.
[[nodiscard]] GraphHdModel model_from_snapshot(const InferenceSnapshot& snapshot);

}  // namespace graphhd::core
