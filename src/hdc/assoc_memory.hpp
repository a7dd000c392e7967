/// \file assoc_memory.hpp
/// Associative memory: the trained HDC model M = {C1, ..., Ck}.
///
/// Training (Section III-B) bundles the encoded samples of each class into a
/// class vector; inference (Section III-C) returns the class whose vector is
/// most similar to the query.  This class supports both the paper's
/// majority-quantized class vectors and the integer-accumulator ("counter")
/// model that the retraining extension updates in place.
///
/// Samples and queries come in either representation.  Bipolar vectors take
/// the paper-exact reference path; packed vectors (bit set = bipolar -1) take
/// the packed kernels — accumulate_packed for bundling, popcount Hamming
/// distances for quantized queries — and produce the same counters and the
/// same similarity doubles, so the two paths are interchangeable bit for bit
/// (tests/test_packed_assoc.cpp).

#pragma once

#include <cstdint>
#include <vector>

#include "hdc/hypervector.hpp"
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
  ///                     thresholded (bipolar) class vectors — the paper's
  ///                     model; if false, against raw accumulators.
  AssociativeMemory(std::size_t dimension, std::size_t num_classes,
                    Similarity metric = Similarity::kCosine, bool quantized = true);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return accumulators_.size(); }
  [[nodiscard]] Similarity metric() const noexcept { return metric_; }
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }

  /// Adds an encoded training sample to class `label`.
  void add(std::size_t label, const Hypervector& encoded);
  void add(std::size_t label, const PackedHypervector& encoded);

  /// Signed update used by perceptron-style retraining: adds the sample to
  /// its true class and subtracts it from the class it was mispredicted as.
  void retrain_update(std::size_t true_label, std::size_t predicted_label,
                      const Hypervector& encoded);
  void retrain_update(std::size_t true_label, std::size_t predicted_label,
                      const PackedHypervector& encoded);

  /// Number of samples added to class `label` so far.
  [[nodiscard]] std::size_t class_count(std::size_t label) const;

  /// The quantized class vector C_i (majority of the accumulator).
  [[nodiscard]] Hypervector class_vector(std::size_t label) const;

  /// C_i in packed form: always the exact packing of class_vector(label).
  [[nodiscard]] const PackedHypervector& packed_class_vector(std::size_t label) const;

  /// Classifies `query`; requires at least one class.
  [[nodiscard]] QueryResult query(const Hypervector& query) const;

  /// Classifies a packed query.  A quantized memory scores Hamming distances
  /// against the packed class vectors (hdc::similarity_from_hamming), a
  /// counter memory scores hdc::counter_cosine against the accumulators;
  /// both give the same doubles as the bipolar query.
  [[nodiscard]] QueryResult query(const PackedHypervector& query) const;

  /// Rebuilds the cached quantized class vectors of both representations;
  /// queries rebuild the cache they read when the memory is dirty, so this is
  /// for benchmarks that want the finalization cost outside the timed region.
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
  template <typename Vector>
  void add_sample(std::size_t label, const Vector& encoded);
  template <typename Vector>
  void retrain(std::size_t true_label, std::size_t predicted_label, const Vector& encoded);
  void mark_dirty() noexcept;
  void finalize_bipolar() const;
  void finalize_packed() const;

  std::size_t dimension_;
  Similarity metric_;
  bool quantized_;
  std::vector<BundleAccumulator> accumulators_;
  std::vector<std::size_t> counts_;
  /// Quantized class vectors, rebuilt on demand per representation.
  mutable std::vector<Hypervector> cached_class_vectors_;
  mutable std::vector<PackedHypervector> cached_packed_vectors_;
  mutable bool dirty_ = true;
  mutable bool packed_dirty_ = true;
};

}  // namespace graphhd::hdc
