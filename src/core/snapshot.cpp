#include "core/snapshot.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "data/stream.hpp"
#include "hdc/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace graphhd::core {

namespace {

/// Distances scratch for one one-vs-all query (same shape as the class
/// memories use): slot counts are small, so the common case lives on the
/// stack and the hot path performs zero heap allocations beyond the caller's
/// QueryResult.
struct DistanceBuffer {
  explicit DistanceBuffer(std::size_t n) {
    if (n > stack.size()) {
      heap.resize(n);
      data = heap.data();
    } else {
      data = stack.data();
    }
  }
  std::array<std::size_t, 64> stack;
  std::vector<std::size_t> heap;
  std::size_t* data;
};

/// Sets best_class/best_similarity to the first maximum of similarities —
/// the trainer's scan order and strict-improvement rule.
void pick_best(hdc::QueryResult& result) {
  result.best_class = 0;
  result.best_similarity = -2.0;
  for (std::size_t slot = 0; slot < result.similarities.size(); ++slot) {
    if (result.similarities[slot] > result.best_similarity) {
      result.best_similarity = result.similarities[slot];
      result.best_class = slot;
    }
  }
}

}  // namespace

InferenceSnapshot::InferenceSnapshot(GraphHdConfig config, std::size_t num_classes, bool fitted,
                                     std::vector<std::size_t> replica_cursors,
                                     std::vector<SlotMeta> slot_meta,
                                     std::vector<std::int32_t> counters,
                                     std::vector<std::uint64_t> packed_words)
    : config_(config),
      num_classes_(num_classes),
      fitted_(fitted),
      replica_cursors_(std::move(replica_cursors)),
      slot_meta_(std::move(slot_meta)),
      owned_counters_(std::move(counters)),
      owned_words_(std::move(packed_words)) {
  counters_base_ = owned_counters_.data();
  words_base_ = owned_words_.data();
  init_rows_and_validate();
  if (owned_counters_.size() != slots() * config_.dimension ||
      owned_words_.size() != slots() * words_per_slot_) {
    throw std::invalid_argument("InferenceSnapshot: buffer sizes disagree with the slot layout");
  }
}

InferenceSnapshot::InferenceSnapshot(GraphHdConfig config, std::size_t num_classes, bool fitted,
                                     std::vector<std::size_t> replica_cursors,
                                     std::vector<SlotMeta> slot_meta,
                                     const std::int32_t* counters,
                                     const std::uint64_t* packed_words,
                                     std::shared_ptr<const void> storage)
    : config_(config),
      num_classes_(num_classes),
      fitted_(fitted),
      replica_cursors_(std::move(replica_cursors)),
      slot_meta_(std::move(slot_meta)),
      storage_(std::move(storage)),
      counters_base_(counters),
      words_base_(packed_words) {
  if (counters_base_ == nullptr || words_base_ == nullptr) {
    throw std::invalid_argument("InferenceSnapshot: borrowed buffers must be non-null");
  }
  init_rows_and_validate();
}

void InferenceSnapshot::init_rows_and_validate() {
  try {
    config_.validate();
  } catch (const std::exception& error) {
    throw std::invalid_argument(std::string("InferenceSnapshot: invalid config: ") +
                                error.what());
  }
  if (num_classes_ < 2) {
    throw std::invalid_argument("InferenceSnapshot: need at least 2 classes");
  }
  if (slot_meta_.size() != num_classes_ * config_.vectors_per_class) {
    throw std::invalid_argument("InferenceSnapshot: slot metadata count mismatch");
  }
  if (replica_cursors_.size() != num_classes_) {
    throw std::invalid_argument("InferenceSnapshot: replica cursor count mismatch");
  }
  for (std::size_t c = 0; c < num_classes_; ++c) {
    if (replica_cursors_[c] >= config_.vectors_per_class) {
      throw std::invalid_argument("InferenceSnapshot: replica cursor out of range");
    }
  }
  words_per_slot_ = (config_.dimension + 63) / 64;
  rows_.resize(slots());
  for (std::size_t slot = 0; slot < slots(); ++slot) {
    rows_[slot] = words_base_ + slot * words_per_slot_;
  }
}

const InferenceSnapshot::SlotMeta& InferenceSnapshot::slot_meta(std::size_t slot) const {
  if (slot >= slot_meta_.size()) {
    throw std::out_of_range("InferenceSnapshot::slot_meta: slot out of range");
  }
  return slot_meta_[slot];
}

std::span<const std::int32_t> InferenceSnapshot::counters(std::size_t slot) const {
  if (slot >= slots()) {
    throw std::out_of_range("InferenceSnapshot::counters: slot out of range");
  }
  return {counters_base_ + slot * config_.dimension, config_.dimension};
}

std::span<const std::uint64_t> InferenceSnapshot::packed_words(std::size_t slot) const {
  if (slot >= slots()) {
    throw std::out_of_range("InferenceSnapshot::packed_words: slot out of range");
  }
  return {words_base_ + slot * words_per_slot_, words_per_slot_};
}

std::vector<std::size_t> InferenceSnapshot::class_counts() const {
  std::vector<std::size_t> counts(num_classes_, 0);
  for (std::size_t slot = 0; slot < slots(); ++slot) {
    counts[slot / config_.vectors_per_class] +=
        static_cast<std::size_t>(slot_meta_[slot].sample_count);
  }
  return counts;
}

std::size_t InferenceSnapshot::footprint_bytes() const noexcept {
  return slots() * ((config_.dimension + 7) / 8);
}

hdc::QueryResult InferenceSnapshot::query(const hdc::PackedHypervector& query_hv) const {
  if (query_hv.dimension() != config_.dimension) {
    throw std::invalid_argument("InferenceSnapshot::query: dimension mismatch");
  }
  return query_words(query_hv.words().data());
}

hdc::QueryResult InferenceSnapshot::query(const hdc::Hypervector& query_hv) const {
  return query(hdc::PackedHypervector::from_bipolar(query_hv));
}

hdc::QueryResult InferenceSnapshot::query_words(const std::uint64_t* words) const {
  const std::size_t num_slots = slots();
  hdc::QueryResult result;
  result.similarities.resize(num_slots);
  if (config_.quantized_model) {
    DistanceBuffer distances(num_slots);
    hdc::kernels::active().hamming_batch(words, rows_.data(), num_slots, words_per_slot_,
                                         distances.data);
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      result.similarities[slot] = hdc::similarity_from_hamming(
          config_.metric, distances.data[slot], config_.dimension);
    }
  } else {
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      result.similarities[slot] = hdc::counter_cosine(counters(slot), words);
    }
  }
  pick_best(result);
  return result;
}

Prediction InferenceSnapshot::prediction_from(const hdc::QueryResult& result) const {
  Prediction prediction;
  prediction.class_scores.assign(num_classes_, -2.0);
  for (std::size_t slot = 0; slot < result.similarities.size(); ++slot) {
    const std::size_t cls = slot / config_.vectors_per_class;
    prediction.class_scores[cls] =
        std::max(prediction.class_scores[cls], result.similarities[slot]);
  }
  prediction.label = result.best_class / config_.vectors_per_class;
  prediction.score = result.best_similarity;
  return prediction;
}

void InferenceSnapshot::predict_encoded_batch(const std::uint64_t* const* query_rows,
                                              std::size_t count, Prediction* out) const {
  if (!config_.quantized_model) {
    // Counter scoring reads every counter once per query either way; there
    // is no class-row stream to share across the batch.
    for (std::size_t q = 0; q < count; ++q) out[q] = prediction_from(query_words(query_rows[q]));
    return;
  }
  if (count == 0) return;
  const std::size_t num_slots = slots();
  // Transposed orientation: each class row plays the kernel's "query" role
  // and the batch's queries play the row-table role, so one hamming_batch
  // call per slot covers the whole batch.  distances is slot-major:
  // distances[slot * count + q] == hamming(slot row, query q).
  std::vector<std::size_t> distances(num_slots * count);
  const auto& ops = hdc::kernels::active();
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    ops.hamming_batch(rows_[slot], query_rows, count, words_per_slot_,
                      distances.data() + slot * count);
  }
  // Per query, the same exact integer distances and the same slot scan as
  // the single-query path — bit-identical Predictions.
  hdc::QueryResult result;
  result.similarities.resize(num_slots);
  for (std::size_t q = 0; q < count; ++q) {
    for (std::size_t slot = 0; slot < num_slots; ++slot) {
      result.similarities[slot] = hdc::similarity_from_hamming(
          config_.metric, distances[slot * count + q], config_.dimension);
    }
    pick_best(result);
    out[q] = prediction_from(result);
  }
}

std::vector<Prediction> InferenceSnapshot::predict_encoded_batch(
    std::span<const hdc::PackedHypervector> queries) const {
  std::vector<const std::uint64_t*> query_rows(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].dimension() != config_.dimension) {
      throw std::invalid_argument("InferenceSnapshot::predict_encoded_batch: dimension mismatch");
    }
    query_rows[q] = queries[q].words().data();
  }
  std::vector<Prediction> predictions(queries.size());
  predict_encoded_batch(query_rows.data(), queries.size(), predictions.data());
  return predictions;
}

Prediction InferenceSnapshot::predict_encoded(const hdc::PackedHypervector& encoded) const {
  return prediction_from(query(encoded));
}

Prediction InferenceSnapshot::predict_encoded(const hdc::Hypervector& encoded) const {
  return prediction_from(query(encoded));
}

bool encoder_compatible(const GraphHdConfig& a, const GraphHdConfig& b) noexcept {
  return a.dimension == b.dimension && a.seed == b.seed && a.identifier == b.identifier &&
         a.pagerank_iterations == b.pagerank_iterations &&
         a.pagerank_damping == b.pagerank_damping &&
         a.use_bitslice_bundling == b.use_bitslice_bundling &&
         a.use_vertex_labels == b.use_vertex_labels &&
         a.neighborhood_rounds == b.neighborhood_rounds && a.backend == b.backend;
}

std::vector<Prediction> predict_dataset(const InferenceSnapshot& snapshot, GraphHdEncoder& encoder,
                                        const data::GraphDataset& dataset) {
  // Encode in parallel, then query concurrently: every query is a pure read
  // on the immutable snapshot.
  const std::vector<hdc::PackedHypervector> encoded = encode_dataset_packed(encoder, dataset);
  std::vector<Prediction> predictions(dataset.size());
  parallel::parallel_for(dataset.size(), [&](std::size_t i) {
    predictions[i] = snapshot.predict_encoded(encoded[i]);
  });
  return predictions;
}

void predict_stream_chunks(std::shared_ptr<const InferenceSnapshot> snapshot,
                           GraphHdEncoder& encoder, data::GraphStream& stream,
                           const StreamOptions& options,
                           const std::function<void(std::size_t, const Prediction&)>& sink) {
  options.validate("predict_stream");
  stream.reset();
  std::size_t index = 0;
  data::ChunkFetcher fetcher(stream, options.chunk, options.prefetch);
  for (data::GraphDataset chunk = fetcher.next(); !chunk.empty(); chunk = fetcher.next()) {
    for (const Prediction& prediction : predict_dataset(*snapshot, encoder, chunk)) {
      sink(index++, prediction);
    }
  }
}

std::vector<Prediction> collect_stream_predictions(
    std::shared_ptr<const InferenceSnapshot> snapshot, GraphHdEncoder& encoder,
    data::GraphStream& stream, const StreamOptions& options) {
  std::vector<Prediction> predictions;
  if (const auto hint = stream.size_hint(); hint.has_value()) predictions.reserve(*hint);
  predict_stream_chunks(std::move(snapshot), encoder, stream, options,
                        [&](std::size_t, const Prediction& prediction) {
                          predictions.push_back(prediction);
                        });
  return predictions;
}

}  // namespace graphhd::core
