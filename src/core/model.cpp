#include "core/model.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "core/runtime.hpp"
#include "core/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace graphhd::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using EncodedChunk = std::vector<hdc::PackedHypervector>;

/// The training passes' chunk loop: pulls `stream` chunk by chunk (through a
/// data::ChunkFetcher), rejects a label beyond the model's `num_classes`, encodes
/// the chunk in parallel and hands both to `visit`, in stream order.
template <typename Visit>
void for_each_encoded_chunk(GraphHdEncoder& encoder, std::size_t num_classes,
                            data::GraphStream& stream, const StreamOptions& options,
                            Visit&& visit) {
  data::ChunkFetcher fetcher(stream, options.chunk, options.prefetch);
  for (data::GraphDataset chunk = fetcher.next(); !chunk.empty(); chunk = fetcher.next()) {
    if (chunk.num_classes() > num_classes) {
      throw std::invalid_argument(
          "GraphHdModel::fit_stream: stream label exceeds the model's class count");
    }
    visit(chunk, encode_dataset_packed(encoder, chunk));
  }
}

/// Per-shard checkpoint file of a sharded fit.
[[nodiscard]] std::filesystem::path shard_checkpoint_path(const std::filesystem::path& base,
                                                          std::size_t shard) {
  if (base.empty()) return base;
  std::filesystem::path path = base;
  path += ".shard" + std::to_string(shard);
  return path;
}

void remove_if_exists(const std::filesystem::path& path) {
  if (path.empty()) return;
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Removes every `<base>.shard<digits>` sibling of a sharded fit's
/// checkpoint base — not just the current shard count's files.  A previous
/// *wider* run may have left higher-numbered files behind; they would fail
/// the resume topology check loudly, but the success path must not leave
/// that trap armed (and must not leak disk).
void cleanup_shard_checkpoints(const std::filesystem::path& base) {
  if (base.empty()) return;
  const std::string prefix = base.filename().string() + ".shard";
  std::filesystem::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code list_error;
  std::filesystem::directory_iterator entries(dir, list_error);
  if (list_error) return;
  for (const std::filesystem::directory_entry& entry : entries) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.find_first_not_of("0123456789", prefix.size()) != std::string::npos) continue;
    std::error_code ignored;
    std::filesystem::remove(entry.path(), ignored);
  }
}

/// Global sample `global`'s precomputed replica; the bound check catches a
/// source that grew between the label pass and the bundle pass (the
/// assignment would no longer be the serial one).
[[nodiscard]] std::size_t replica_at(const std::vector<std::size_t>& replica_of,
                                     std::size_t global) {
  if (global >= replica_of.size()) {
    throw std::runtime_error(
        "GraphHdModel::fit_stream: stream grew between the label pass and the bundle pass");
  }
  return replica_of[global];
}

}  // namespace

GraphHdModel::GraphHdModel(const GraphHdConfig& config, std::size_t num_classes)
    : config_(config),
      num_classes_(num_classes),
      encoder_(config),
      memory_(config.dimension, num_classes * config.vectors_per_class, config.metric,
              config.quantized_model),
      next_replica_(num_classes, 0) {
  if (num_classes < 2) {
    throw std::invalid_argument("GraphHdModel: need at least 2 classes");
  }
}

void GraphHdModel::fit(const data::GraphDataset& train) {
  if (fitted_) {
    throw std::logic_error("GraphHdModel::fit: model already fitted");
  }
  if (train.num_classes() > num_classes_) {
    throw std::invalid_argument("GraphHdModel::fit: dataset has more classes than the model");
  }
  invalidate_snapshot();

  // Encode once (in parallel — see core::encode_dataset_packed); the
  // encodings are reused by every retraining epoch.
  const std::vector<hdc::PackedHypervector> encoded = encode_dataset_packed(encoder_, train);
  for (std::size_t i = 0; i < train.size(); ++i) {
    bundle_sample(train.label(i), next_replica_[train.label(i)], encoded[i]);
  }
  for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
    std::size_t mispredictions = 0;
    for (std::size_t i = 0; i < train.size(); ++i) {
      mispredictions += retrain_sample(train.label(i), encoded[i]) ? 1 : 0;
    }
    if (mispredictions == 0) break;
  }
  fitted_ = true;
}

template <typename Pass>
auto GraphHdModel::guarded_pass(const char* who, const data::GraphStream& stream, Pass&& pass) {
  if (fitted_) {
    throw std::logic_error(std::string(who) + ": model already fitted");
  }
  if (stream.num_classes() > num_classes_) {
    throw std::invalid_argument(std::string(who) + ": stream has more classes than the model");
  }
  invalidate_snapshot();
  // One class-memory copy per call: a pass that throws rolls back whatever
  // it folded in (bundled samples, merged shards, an adopted checkpoint), so
  // a retry on the same instance equals a clean fit.
  hdc::AssociativeMemory memory = memory_;
  std::vector<std::size_t> cursors = next_replica_;
  try {
    return pass();
  } catch (...) {
    invalidate_snapshot();
    memory_ = std::move(memory);
    next_replica_ = std::move(cursors);
    fitted_ = false;
    throw;
  }
}

void GraphHdModel::fit_stream(data::GraphStream& stream, const TrainOptions& options) {
  options.validate("GraphHdModel::fit_stream");
  if (options.shards > 1 && options.workers != 1) {
    throw std::invalid_argument(
        "GraphHdModel::fit_stream: options.workers != 1 requires the StreamOpener form of "
        "fit_stream_sharded — a borrowed stream has a single cursor and cannot be pulled "
        "concurrently");
  }
  fit_shards(stream, nullptr, options, "GraphHdModel::fit_stream");
}

void GraphHdModel::fit_stream_sharded(const data::StreamOpener& opener,
                                      const TrainOptions& options) {
  if (!opener) {
    throw std::invalid_argument("GraphHdModel::fit_stream_sharded: opener must be callable");
  }
  options.validate("GraphHdModel::fit_stream_sharded");
  // ReplayableStream turns the opener into a rewindable source for the
  // label pass, inline shard views and the retrain replays.
  data::ReplayableStream stream(opener);
  fit_shards(stream, &opener, options, "GraphHdModel::fit_stream_sharded");
}

void GraphHdModel::fit_shards(data::GraphStream& stream, const data::StreamOpener* opener,
                              const TrainOptions& options, const char* who) {
  // Same schedule as fit(): one bundling pass (checkpointed when asked),
  // then one stream replay per retraining epoch.  Chunk boundaries and shard
  // boundaries are invisible to the result — encoding is seed-deterministic
  // per sample, the merged counters equal the serial bundle counters
  // exactly, and the retrain updates run in stream order.
  guarded_pass(who, stream, [&] {
    (void)bundle_shards(stream, opener, options, std::nullopt);
    const auto retrain_start = Clock::now();
    retrain_stream(stream, options.stream());
    if (options.stats != nullptr) options.stats->retrain_seconds = seconds_since(retrain_start);
    fitted_ = true;
  });
  // Success: the checkpoints have served their purpose.
  if (options.shards == 1) {
    remove_if_exists(options.checkpoint);
  } else {
    cleanup_shard_checkpoints(options.checkpoint);
  }
}

std::size_t GraphHdModel::bundle_shards(data::GraphStream& stream,
                                        const data::StreamOpener* opener,
                                        const TrainOptions& options,
                                        std::optional<std::size_t> only) {
  const std::size_t shards = options.shards;
  const std::size_t first = only.value_or(0);
  const std::size_t count = only.has_value() ? 1 : shards;
  std::size_t workers = 1;
  if (opener != nullptr) {
    workers = std::min(count, options.workers == 0 ? parallel::configured_threads()
                                                   : options.workers);
  }
  if (options.stats != nullptr) {
    *options.stats = TrainStats{};
    options.stats->shards.resize(count);
    options.stats->workers_used = workers;
  }
  const std::vector<std::size_t> replica_of =
      shards > 1 ? global_replica_assignment(stream) : std::vector<std::size_t>{};

  // Workers claim shards off an atomic counter; the calling thread is worker
  // 0, so a single worker runs the shards inline in index order.  A lone
  // shard bundles straight into *this (its encoder stays warm); otherwise
  // each shard bundles into a private model that merges into *this as soon
  // as it finishes.  merge() sums counters, counts and cursors and XORs
  // parities, so completion order cannot change a bit.  The encode passes go
  // through the process-wide pool, which runs one top-level batch at a time:
  // concurrent workers overlap stream pull/parse with each other's encodes
  // instead of oversubscribing the cores.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next_slot{0};
  std::atomic<bool> abort{false};
  std::mutex merge_mutex;
  std::size_t samples = 0;  // guarded by merge_mutex.
  const auto worker_loop = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= count) return;
      const std::size_t shard = first + slot;
      try {
        // The stream itself when unsharded; on worker threads a private
        // owning view (its own cursor from `opener`), else a view borrowing
        // the one cursor.
        std::optional<data::ShardedStream> view;
        if (shards > 1 && workers > 1) view.emplace(*opener, shard, shards);
        if (shards > 1 && workers == 1) view.emplace(stream, shard, shards);
        std::optional<GraphHdModel> shard_model;
        GraphHdModel& target = count == 1 ? *this : shard_model.emplace(config_, num_classes_);
        const auto start = Clock::now();
        const std::size_t bundled = target.bundle_stream(
            view.has_value() ? *view : stream, options,
            count == 1 ? options.checkpoint : shard_checkpoint_path(options.checkpoint, shard),
            replica_of, shards, shard);
        if (options.stats != nullptr) {
          options.stats->shards[slot] =
              ShardProgress{shard, bundled, seconds_since(start), runtime::peak_rss_kb()};
        }
        const std::lock_guard<std::mutex> lock(merge_mutex);
        samples += bundled;
        if (shard_model.has_value()) {
          const auto merge_start = Clock::now();
          merge(std::move(*shard_model));
          if (options.stats != nullptr) options.stats->merge_seconds += seconds_since(merge_start);
        }
      } catch (...) {
        errors[slot] = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(worker_loop);
    worker_loop();
  }  // joins the helpers.

  // Deterministic error propagation: the lowest failed shard's exception
  // wins, whatever order the workers actually hit their errors in.
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
  return samples;
}

std::size_t GraphHdModel::bundle_stream(data::GraphStream& stream, const TrainOptions& options,
                                        const std::filesystem::path& checkpoint,
                                        const std::vector<std::size_t>& replica_of,
                                        std::size_t shard_count, std::size_t shard_index) {
  // Resume: adopt the persisted counters and skip the already-consumed
  // prefix.  A missing file simply starts fresh (first run of a resumable
  // job); a corrupt file throws in resume_checkpoint.
  std::size_t start_index = 0;
  if (options.resume && !checkpoint.empty() && std::filesystem::exists(checkpoint)) {
    ResumedCheckpoint resumed = resume_checkpoint(checkpoint);
    if (!(resumed.model.config() == config_) || resumed.model.num_classes() != num_classes_) {
      throw std::runtime_error("GraphHdModel::fit_stream: checkpoint " + checkpoint.string() +
                               " was written by a model with a different configuration");
    }
    // samples_consumed indexes into the checkpoint's round-robin shard view;
    // under any other {shard_count, shard_index} that prefix names different
    // samples, so a mismatched resume would silently skip or duplicate data.
    const CheckpointProgress& progress = resumed.progress;
    if (progress.shard_count == 0) {
      throw std::runtime_error("GraphHdModel::fit_stream: checkpoint " + checkpoint.string() +
                               " predates shard-topology progress (v1) — its shard "
                               "assignment is unknown; delete it and restart the fit");
    }
    if (progress.shard_count != shard_count || progress.shard_index != shard_index) {
      throw std::runtime_error(
          "GraphHdModel::fit_stream: checkpoint " + checkpoint.string() +
          " was written as shard " + std::to_string(progress.shard_index) + " of " +
          std::to_string(progress.shard_count) + " but this fit runs shard " +
          std::to_string(shard_index) + " of " + std::to_string(shard_count) +
          " — resuming would skip or duplicate samples");
    }
    adopt_state(resumed.model);
    fitted_ = false;  // mid-training state, whatever the artifact says.
    if (progress.bundle_complete) return static_cast<std::size_t>(progress.samples_consumed);
    start_index = static_cast<std::size_t>(progress.samples_consumed);
  }

  stream.reset();
  std::size_t index = 0;
  for (; index < start_index; ++index) {
    if (!stream.next().has_value()) {
      throw std::runtime_error(
          "GraphHdModel::fit_stream: checkpoint consumed more samples than the stream "
          "holds — resuming against a different stream?");
    }
  }

  std::size_t last_saved = index;
  const auto maybe_checkpoint = [&](bool bundle_complete) {
    if (checkpoint.empty()) return;
    if (!bundle_complete && index - last_saved < options.checkpoint_interval) return;
    save_checkpoint(*this, {index, bundle_complete, shard_count, shard_index}, checkpoint);
    // save_checkpoint builds (and caches) a snapshot of the mid-fit state;
    // drop it so later snapshot() calls never serve stale counters.
    invalidate_snapshot();
    last_saved = index;
  };

  // Algorithm 1: bundle every sample into (a prototype of) its class.  The
  // stream's local sample k is global sample shard_index + k * shard_count.
  const auto bundle_chunk = [&](const data::GraphDataset& chunk, const EncodedChunk& encoded) {
    for (std::size_t i = 0; i < chunk.size(); ++i, ++index) {
      const std::size_t label = chunk.label(i);
      bundle_sample(label,
                    replica_of.empty()
                        ? next_replica_[label]
                        : replica_at(replica_of, shard_index + index * shard_count),
                    encoded[i]);
    }
    maybe_checkpoint(false);
  };
  for_each_encoded_chunk(encoder_, num_classes_, stream, options.stream(), bundle_chunk);
  // Bundle-complete marker: a crash during (deterministic, restartable)
  // retraining resumes from here instead of re-ingesting the stream.
  maybe_checkpoint(true);
  return index;
}

void GraphHdModel::retrain_stream(data::GraphStream& stream, const StreamOptions& options) {
  // Extension VII.1a: perceptron-style retraining, re-encoding per epoch.
  for (std::size_t epoch = 0; epoch < config_.retrain_epochs; ++epoch) {
    std::size_t mispredictions = 0;
    const auto retrain_chunk = [&](const data::GraphDataset& chunk, const EncodedChunk& encoded) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        mispredictions += retrain_sample(chunk.label(i), encoded[i]) ? 1 : 0;
      }
    };
    stream.reset();
    for_each_encoded_chunk(encoder_, num_classes_, stream, options, retrain_chunk);
    if (mispredictions == 0) break;
  }
}

void GraphHdModel::bundle_sample(std::size_t label, std::size_t replica,
                                 const hdc::PackedHypervector& encoded) {
  next_replica_[label] = (next_replica_[label] + 1) % config_.vectors_per_class;
  memory_.add(slot_of(label, replica), encoded);
}

bool GraphHdModel::retrain_sample(std::size_t label, const hdc::PackedHypervector& encoded) {
  const hdc::QueryResult result = memory_.query(encoded);
  if (class_of_slot(result.best_class) == label) return false;
  memory_.retrain_update(best_slot_in_class(result, label), result.best_class, encoded);
  return true;
}

std::vector<std::size_t> GraphHdModel::global_replica_assignment(data::GraphStream& stream) {
  // Serial fit assigns sample -> replica by per-class arrival order.  A
  // shard only sees every W-th sample, so with vectors_per_class > 1 its
  // local arrival order would pick different replicas than the serial fit.
  // One cheap label pass (label_scan when the source supports it) rebuilds
  // the *global* assignment; each shard then bundles its samples into
  // exactly the slots the serial fit would have used.
  std::vector<std::size_t> replica_of;
  if (config_.vectors_per_class <= 1) return replica_of;
  const std::vector<std::size_t> labels = data::collect_labels(stream);
  replica_of.resize(labels.size());
  std::vector<std::size_t> seen(num_classes_, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= num_classes_) {
      throw std::invalid_argument(
          "GraphHdModel::fit_stream: stream label exceeds the model's class count");
    }
    replica_of[i] = seen[labels[i]]++ % config_.vectors_per_class;
  }
  return replica_of;
}

CheckpointProgress GraphHdModel::fit_stream_shard(data::GraphStream& stream,
                                                  std::size_t shard_index,
                                                  const TrainOptions& options) {
  options.validate("GraphHdModel::fit_stream_shard");
  if (shard_index >= options.shards) {
    throw std::invalid_argument("GraphHdModel::fit_stream_shard: shard index " +
                                std::to_string(shard_index) + " out of range for " +
                                std::to_string(options.shards) + " shards");
  }
  // The replica assignment comes from the GLOBAL label order — every machine
  // computes the same one from the same full stream, so the union of the
  // per-machine bundles lands in exactly the serial fit's slots.  A lone
  // shard checkpoints to options.checkpoint as-is: this process owns exactly
  // one shard, so there is no sibling to disambiguate from.
  const std::size_t samples = guarded_pass("GraphHdModel::fit_stream_shard", stream, [&] {
    return bundle_shards(stream, nullptr, options, shard_index);
  });
  return CheckpointProgress{samples, true, options.shards, shard_index};
}

void GraphHdModel::finish_training(data::GraphStream& stream, const StreamOptions& options) {
  options.validate("GraphHdModel::finish_training");
  guarded_pass("GraphHdModel::finish_training", stream, [&] {
    retrain_stream(stream, options);
    fitted_ = true;
  });
}

void GraphHdModel::merge(GraphHdModel&& other) {
  if (!(other.config_ == config_)) {
    throw std::invalid_argument("GraphHdModel::merge: model configurations differ");
  }
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("GraphHdModel::merge: class counts differ (" +
                                std::to_string(num_classes_) + " vs " +
                                std::to_string(other.num_classes_) + ")");
  }
  invalidate_snapshot();
  memory_.merge(other.memory_);
  // Replica cursors advance per bundled sample, so the merged cursor is the
  // sum of both arrival counts modulo the replica count — exactly where the
  // serial cursor would stand after both sample sets.
  for (std::size_t c = 0; c < num_classes_; ++c) {
    next_replica_[c] = (next_replica_[c] + other.next_replica_[c]) % config_.vectors_per_class;
  }
  fitted_ = fitted_ || other.fitted_;
}

void GraphHdModel::adopt_state(const GraphHdModel& source) {
  invalidate_snapshot();
  memory_ = source.memory_;
  next_replica_ = source.next_replica_;
  fitted_ = source.fitted_;
}

void GraphHdModel::partial_fit(const graph::Graph& graph, std::size_t label) {
  if (label >= num_classes_) {
    throw std::out_of_range("GraphHdModel::partial_fit: label out of range");
  }
  invalidate_snapshot();
  bundle_sample(label, next_replica_[label], encoder_.encode_packed(graph));
}

std::size_t GraphHdModel::best_slot_in_class(const hdc::QueryResult& result,
                                             std::size_t class_id) const {
  std::size_t best = slot_of(class_id, 0);
  for (std::size_t r = 1; r < config_.vectors_per_class; ++r) {
    const std::size_t slot = slot_of(class_id, r);
    if (result.similarities[slot] > result.similarities[best]) best = slot;
  }
  return best;
}

Prediction GraphHdModel::predict(const graph::Graph& graph) {
  return snapshot()->predict_encoded(encoder_.encode_packed(graph));
}

Prediction GraphHdModel::predict_encoded(const hdc::PackedHypervector& encoded) const {
  return snapshot()->predict_encoded(encoded);
}

std::vector<Prediction> GraphHdModel::predict_batch(const data::GraphDataset& test) {
  // Pinning one snapshot up front (building it finalizes the class vectors)
  // makes the concurrent queries pure reads on an immutable object.
  return predict_dataset(*snapshot(), encoder_, test);
}

void GraphHdModel::predict_stream(data::GraphStream& stream, const StreamOptions& options,
                                  const std::function<void(std::size_t, const Prediction&)>& sink) {
  predict_stream_chunks(snapshot(), encoder_, stream, options, sink);
}

std::vector<Prediction> GraphHdModel::predict_stream(data::GraphStream& stream,
                                                     const StreamOptions& options) {
  return collect_stream_predictions(snapshot(), encoder_, stream, options);
}

double GraphHdModel::evaluate(const data::GraphDataset& test) {
  if (test.empty()) return 0.0;
  const auto predictions = predict_batch(test);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    hits += static_cast<std::size_t>(predictions[i].label == test.label(i));
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

void GraphHdModel::restore_state(std::vector<hdc::BundleAccumulator> accumulators,
                                 std::vector<std::size_t> sample_counts,
                                 std::vector<std::size_t> replica_cursors, bool fitted) {
  const std::size_t slots = num_classes_ * config_.vectors_per_class;
  if (accumulators.size() != slots || sample_counts.size() != slots ||
      replica_cursors.size() != num_classes_) {
    throw std::invalid_argument("GraphHdModel::restore_state: slot layout mismatch");
  }
  invalidate_snapshot();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    memory_.restore(slot, std::move(accumulators[slot]), sample_counts[slot]);
  }
  next_replica_ = std::move(replica_cursors);
  fitted_ = fitted;
}

std::shared_ptr<const InferenceSnapshot> GraphHdModel::snapshot() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_.mutex);
  if (snapshot_ != nullptr) return snapshot_;
  const std::size_t slots = memory_.num_classes();
  std::vector<InferenceSnapshot::SlotMeta> meta(slots);
  std::vector<std::int32_t> counters;
  counters.reserve(slots * config_.dimension);
  std::vector<std::uint64_t> words;
  words.reserve(slots * ((config_.dimension + 63) / 64));
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const hdc::BundleAccumulator& acc = memory_.accumulator(slot);
    meta[slot] = {memory_.class_count(slot), acc.count(), acc.tie_free()};
    counters.insert(counters.end(), acc.counts().begin(), acc.counts().end());
    const auto row = memory_.packed_class_vector(slot).words();
    words.insert(words.end(), row.begin(), row.end());
  }
  snapshot_ = std::make_shared<const InferenceSnapshot>(config_, num_classes_, fitted_,
                                                        next_replica_, std::move(meta),
                                                        std::move(counters), std::move(words));
  return snapshot_;
}

GraphHdModel model_from_snapshot(const InferenceSnapshot& snapshot) {
  GraphHdModel model(snapshot.config(), snapshot.num_classes());
  const std::size_t slots = snapshot.slots();
  std::vector<hdc::BundleAccumulator> accumulators;
  std::vector<std::size_t> sample_counts;
  accumulators.reserve(slots);
  sample_counts.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const auto counts = snapshot.counters(slot);
    const auto& meta = snapshot.slot_meta(slot);
    accumulators.push_back(hdc::BundleAccumulator::from_raw(
        std::vector<std::int32_t>(counts.begin(), counts.end()),
        static_cast<std::size_t>(meta.add_count), meta.tie_free));
    sample_counts.push_back(static_cast<std::size_t>(meta.sample_count));
  }
  model.restore_state(std::move(accumulators), std::move(sample_counts),
                      snapshot.replica_cursors(), snapshot.fitted());
  return model;
}

std::vector<std::size_t> GraphHdModel::class_counts() const {
  std::vector<std::size_t> counts(num_classes_, 0);
  for (std::size_t slot = 0; slot < memory_.num_classes(); ++slot) {
    counts[class_of_slot(slot)] += memory_.class_count(slot);
  }
  return counts;
}

}  // namespace graphhd::core
