/// \file options.hpp
/// Unified options structs for every streaming entry point.
///
/// Every streaming entry point (`fit_stream`, `predict_stream`,
/// `cross_validate_stream` via `CvConfig::stream`) takes its knobs from one
/// of these structs, so adding a knob — sharding, prefetch,
/// checkpointing — touches no signature:
///
///   model.fit_stream(stream, {.chunk = 128, .shards = 8});
///   model.predict_stream(stream, {.chunk = 256});
///
/// StreamOptions covers read-only passes (predict/CV folds);
/// TrainOptions extends it with the training-only knobs (shards,
/// checkpoint/resume).  docs/training.md has the field tables.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace graphhd::core {

/// Mid-training progress carried by a checkpoint artifact (the `progress`
/// section, id 4, of the v3 format — see core/serialize.hpp and
/// docs/formats.md).  `samples_consumed` counts stream samples already
/// folded into the counters; resume skips exactly that prefix.
///
/// Since progress v2 the section also records the *shard topology* the
/// counters were produced under: `samples_consumed` indexes into the shard's
/// round-robin view of the stream, so a checkpoint is only meaningful for
/// the exact {shard_count, shard_index} it was written with — resuming it
/// under a different topology would silently skip or duplicate samples.
/// Progress-v1 files predate the topology fields and load with
/// `shard_count == 0` ("unknown"); resume and merge paths reject that
/// rather than guess.
struct CheckpointProgress {
  std::uint64_t samples_consumed = 0;
  bool bundle_complete = false;   ///< bundling pass finished (retraining may remain).
  std::uint64_t shard_count = 1;  ///< round-robin shard count W; 0 = unknown (v1 file).
  std::uint64_t shard_index = 0;  ///< this checkpoint's shard k (samples i with i % W == k).
};

/// Knobs of a read-only streaming pass (predict_stream, the per-fold
/// streams of cross_validate_stream).
struct StreamOptions {
  /// Graphs pulled/encoded per chunk — the memory/parallelism granularity.
  /// Results are bit-identical at any chunk size; larger chunks amortize
  /// pool dispatch, smaller chunks bound peak memory tighter.
  std::size_t chunk = 64;

  /// Overlap pulling/parsing chunk N+1 with encoding chunk N (one background
  /// thread per active stream pass).  Bit-identical either way — the stream
  /// is still consumed strictly in order; disable to debug stream sources
  /// single-threaded.
  bool prefetch = true;

  /// Throws std::invalid_argument naming `who` when a field is out of range.
  void validate(const char* who) const {
    if (chunk == 0) {
      throw std::invalid_argument(std::string(who) + ": options.chunk must be positive");
    }
  }

  friend bool operator==(const StreamOptions&, const StreamOptions&) = default;
};

/// Per-shard progress of one sharded bundling pass, reported through
/// TrainOptions::stats.  Each shard worker fills exactly its own entry, so
/// the vector is written without synchronization beyond the fit's own joins.
struct ShardProgress {
  std::size_t shard = 0;        ///< shard index k (samples i with i % W == k).
  std::size_t samples = 0;      ///< samples bundled by this shard.
  double seconds = 0.0;         ///< wall-clock of this shard's bundling pass.
  std::size_t peak_rss_kb = 0;  ///< process VmHWM (KB) sampled after the shard; 0 = unknown.
};

/// Aggregate statistics of one fit_stream / fit_stream_sharded call, filled
/// when TrainOptions::stats points at an instance.  Purely observational —
/// the trained state is bit-identical whether or not stats are collected.
struct TrainStats {
  std::vector<ShardProgress> shards;  ///< one entry per shard, index order.
  std::size_t workers_used = 1;       ///< shard workers that ran (the caller is one).
  double merge_seconds = 0.0;         ///< reduce phase (counter merges, summed).
  double retrain_seconds = 0.0;       ///< sequential retraining epochs.
};

/// Knobs of a training pass (fit_stream / fit_stream_sharded).  The first
/// two fields mirror StreamOptions so designated initializers read the same
/// across the API.
struct TrainOptions {
  /// See StreamOptions::chunk.
  std::size_t chunk = 64;

  /// See StreamOptions::prefetch.  In sharded training every shard worker
  /// prefetches its own shard view independently.
  bool prefetch = true;

  /// Number of training shards W.  1 = plain serial fit_stream; W > 1
  /// partitions the stream round-robin by sample index (sample i goes to
  /// shard i % W), fits a private model per shard and merges each as it
  /// finishes — bit-identical to the serial fit at any W (see
  /// GraphHdModel::fit_stream_sharded).
  std::size_t shards = 1;

  /// Checkpoint artifact path; empty = checkpointing off.  During the
  /// bundling pass the full counter state is persisted atomically every
  /// `checkpoint_interval` samples, so a killed ingest resumes instead of
  /// restarting.  Sharded fits write one file per shard
  /// (`<checkpoint>.shard<k>`).  Deleted on successful completion.
  std::filesystem::path checkpoint{};

  /// Samples between checkpoint writes (rounded up to a chunk boundary).
  std::size_t checkpoint_interval = 4096;

  /// Resume from `checkpoint` when the file exists: the persisted counters
  /// are adopted and the already-consumed samples are skipped (pulled but
  /// not encoded).  A missing checkpoint file starts fresh; a corrupt one
  /// throws std::runtime_error; one written under a different shard topology
  /// (other `shards`, other shard index) throws too — its sample prefix
  /// indexes a different round-robin view.  The final model is bit-identical
  /// to an uninterrupted fit over the same stream.
  bool resume = false;

  /// Shard workers of a sharded fit: 1 (default) bundles the shards
  /// sequentially on the calling thread; N > 1 runs up to N shard fits at
  /// once (the calling thread plus N - 1 more), each pulling a private owning
  /// ShardedStream; 0 = auto (min(shards, parallel::configured_threads())).
  /// Any value other than 1 requires the StreamOpener form of
  /// fit_stream_sharded — a borrowed stream has one cursor and cannot be
  /// pulled concurrently, so fit_stream with shards > 1 rejects it.  The
  /// encode passes still go through the process-wide thread pool, which
  /// serializes concurrent top-level batches, so shard workers overlap
  /// stream pull/parse with encode instead of oversubscribing cores.
  /// Bit-identical to serial at any worker count: shards merge in completion
  /// order, and the merge is exact.
  std::size_t workers = 1;

  /// When non-null, per-shard progress/RSS and phase timings of the fit are
  /// written here (see TrainStats).  Observational only; the pointer must
  /// outlive the fit call.
  TrainStats* stats = nullptr;

  /// The read-only subset of these options (replay passes, shard views).
  [[nodiscard]] StreamOptions stream() const { return {.chunk = chunk, .prefetch = prefetch}; }

  /// Throws std::invalid_argument naming `who` when a field is out of range.
  void validate(const char* who) const {
    stream().validate(who);
    if (shards == 0) {
      throw std::invalid_argument(std::string(who) + ": options.shards must be positive");
    }
    if (checkpoint_interval == 0) {
      throw std::invalid_argument(std::string(who) +
                                  ": options.checkpoint_interval must be positive");
    }
    if (resume && checkpoint.empty()) {
      throw std::invalid_argument(std::string(who) +
                                  ": options.resume requires options.checkpoint");
    }
  }
};

/// Lifts read-only stream options into training options (used by adapters
/// whose interface speaks StreamOptions, e.g. the streaming CV classifiers).
[[nodiscard]] inline TrainOptions as_train_options(const StreamOptions& options) {
  TrainOptions train;
  train.chunk = options.chunk;
  train.prefetch = options.prefetch;
  return train;
}

}  // namespace graphhd::core
