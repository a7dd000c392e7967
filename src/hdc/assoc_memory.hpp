/// \file assoc_memory.hpp
/// Associative memory: the trained HDC model M = {C1, ..., Ck}.
///
/// Training (Section III-B) bundles the encoded samples of each class into a
/// class vector; inference (Section III-C) returns the class whose vector is
/// most similar to the query.  This class supports both the paper's
/// majority-quantized class vectors and the integer-accumulator ("counter")
/// model that the retraining extension updates in place.
///
/// Samples and queries are packed words (bit set = bipolar -1):
/// accumulate_packed bundles them into signed counters, a quantized query
/// scores popcount Hamming distances against the thresholded class vectors
/// and a counter query scores hdc::counter_cosine against the counters.  The
/// test oracle (tests/support/dense_reference.hpp) restates the same memory
/// on bipolar vectors, and tests/test_packed_assoc.cpp holds the two
/// against each other bit for bit.

#pragma once

#include <cstdint>
#include <vector>

#include "hdc/ops.hpp"
#include "hdc/packed.hpp"

namespace graphhd::hdc {

/// Result of a single associative-memory query.
struct QueryResult {
  std::size_t best_class = 0;           ///< argmax class index.
  double best_similarity = -2.0;        ///< δ(query, C_best).
  std::vector<double> similarities;     ///< δ(query, C_i) for every class.

  /// Margin between best and runner-up similarity (0 if fewer than 2 classes).
  [[nodiscard]] double margin() const noexcept;
};

/// Associative memory over `num_classes` integer class accumulators.
class AssociativeMemory {
 public:
  /// \param dimension    hypervector dimensionality.
  /// \param num_classes  number of classes k (>= 1).
  /// \param metric       similarity δ used by queries.
  /// \param quantized    if true, queries compare against the majority-
  ///                     thresholded class vectors — the paper's model; if
  ///                     false, against raw accumulators.
  AssociativeMemory(std::size_t dimension, std::size_t num_classes,
                    Similarity metric = Similarity::kCosine, bool quantized = true);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return accumulators_.size(); }
  [[nodiscard]] Similarity metric() const noexcept { return metric_; }
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }

  /// Adds an encoded training sample to class `label`.
  void add(std::size_t label, const PackedHypervector& encoded);
  /// add() of the packed form of a bipolar sample.
  void add(std::size_t label, const Hypervector& encoded);

  /// Signed update used by perceptron-style retraining: adds the sample to
  /// its true class and subtracts it from the class it was mispredicted as.
  void retrain_update(std::size_t true_label, std::size_t predicted_label,
                      const PackedHypervector& encoded);

  /// Number of samples added to class `label` so far.
  [[nodiscard]] std::size_t class_count(std::size_t label) const;

  /// The quantized class vector C_i: the majority of the accumulator, ties
  /// broken by the seed derive_seed(kMajorityTieSeed, i).
  [[nodiscard]] const PackedHypervector& packed_class_vector(std::size_t label) const;

  /// Classifies `query`; requires at least one class.  A quantized memory
  /// scores Hamming distances against the class vectors
  /// (hdc::similarity_from_hamming), a counter memory scores
  /// hdc::counter_cosine against the accumulators.
  [[nodiscard]] QueryResult query(const PackedHypervector& query) const;

  /// Rebuilds the cached quantized class vectors; queries rebuild the cache
  /// when the memory is dirty, so this is for benchmarks that want the
  /// finalization cost outside the timed region.
  void finalize() const;

  /// Raw accumulator of one class slot (serialization / diagnostics).
  [[nodiscard]] const BundleAccumulator& accumulator(std::size_t label) const;

  /// Replaces one slot's accumulator state (deserialization).  The
  /// accumulator's dimension must match the memory's.
  void restore(std::size_t label, BundleAccumulator accumulator, std::size_t sample_count);

  /// Folds another memory in, slot by slot: counter addition, sample counts
  /// summed (see BundleAccumulator::merge).  Exact — querying the merged
  /// memory equals querying one trained on both memories' samples in any
  /// interleaving.  Layouts must agree (dimension, slot count, metric,
  /// quantization); throws std::invalid_argument otherwise.
  void merge(const AssociativeMemory& other);

 private:
  std::size_t dimension_;
  Similarity metric_;
  bool quantized_;
  std::vector<BundleAccumulator> accumulators_;
  std::vector<std::size_t> counts_;
  /// Quantized class vectors, rebuilt on demand after any update.
  mutable std::vector<PackedHypervector> cached_class_vectors_;
  mutable bool dirty_ = true;
};

}  // namespace graphhd::hdc
