#include "hdc/assoc_memory.hpp"

#include <stdexcept>

namespace graphhd::hdc {

namespace {

/// Scores every class with `score` and keeps the first maximum.
template <typename Score>
QueryResult scan_classes(std::size_t num_classes, Score&& score) {
  QueryResult result;
  result.similarities.resize(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double s = score(c);
    result.similarities[c] = s;
    if (s > result.best_similarity) {
      result.best_similarity = s;
      result.best_class = c;
    }
  }
  return result;
}

}  // namespace

double QueryResult::margin() const noexcept {
  if (similarities.size() < 2) return 0.0;
  double best = -2.0, second = -2.0;
  for (const double s : similarities) {
    if (s > best) {
      second = best;
      best = s;
    } else if (s > second) {
      second = s;
    }
  }
  return best - second;
}

AssociativeMemory::AssociativeMemory(std::size_t dimension, std::size_t num_classes,
                                     Similarity metric, bool quantized)
    : dimension_(dimension), metric_(metric), quantized_(quantized) {
  if (dimension == 0) {
    throw std::invalid_argument("AssociativeMemory: dimension must be positive");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("AssociativeMemory: need at least one class");
  }
  accumulators_.assign(num_classes, BundleAccumulator(dimension));
  counts_.assign(num_classes, 0);
}

void AssociativeMemory::add(std::size_t label, const PackedHypervector& encoded) {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::add: label out of range");
  }
  accumulators_[label].add(encoded, 1);
  ++counts_[label];
  dirty_ = true;
}

void AssociativeMemory::add(std::size_t label, const Hypervector& encoded) {
  add(label, PackedHypervector::from_bipolar(encoded));
}

void AssociativeMemory::retrain_update(std::size_t true_label, std::size_t predicted_label,
                                       const PackedHypervector& encoded) {
  if (true_label >= accumulators_.size() || predicted_label >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::retrain_update: label out of range");
  }
  if (true_label == predicted_label) return;
  accumulators_[true_label].add(encoded, 1);
  accumulators_[predicted_label].add(encoded, -1);
  dirty_ = true;
}

std::size_t AssociativeMemory::class_count(std::size_t label) const {
  if (label >= counts_.size()) {
    throw std::out_of_range("AssociativeMemory::class_count: label out of range");
  }
  return counts_[label];
}

const PackedHypervector& AssociativeMemory::packed_class_vector(std::size_t label) const {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::packed_class_vector: label out of range");
  }
  finalize();
  return cached_class_vectors_[label];
}

const BundleAccumulator& AssociativeMemory::accumulator(std::size_t label) const {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::accumulator: label out of range");
  }
  return accumulators_[label];
}

void AssociativeMemory::restore(std::size_t label, BundleAccumulator accumulator,
                                std::size_t sample_count) {
  if (label >= accumulators_.size()) {
    throw std::out_of_range("AssociativeMemory::restore: label out of range");
  }
  if (accumulator.dimension() != dimension_) {
    throw std::invalid_argument("AssociativeMemory::restore: dimension mismatch");
  }
  accumulators_[label] = std::move(accumulator);
  counts_[label] = sample_count;
  dirty_ = true;
}

void AssociativeMemory::merge(const AssociativeMemory& other) {
  if (other.dimension_ != dimension_ || other.accumulators_.size() != accumulators_.size() ||
      other.metric_ != metric_ || other.quantized_ != quantized_) {
    throw std::invalid_argument("AssociativeMemory::merge: memory layout mismatch");
  }
  for (std::size_t slot = 0; slot < accumulators_.size(); ++slot) {
    accumulators_[slot].merge(other.accumulators_[slot]);
    counts_[slot] += other.counts_[slot];
  }
  dirty_ = true;
}

void AssociativeMemory::finalize() const {
  if (!dirty_) return;
  cached_class_vectors_.clear();
  cached_class_vectors_.reserve(accumulators_.size());
  for (std::size_t c = 0; c < accumulators_.size(); ++c) {
    // Per-class tie-break stream keeps empty classes distinct from each other.
    cached_class_vectors_.push_back(
        accumulators_[c].threshold_packed(derive_seed(kMajorityTieSeed, c)));
  }
  dirty_ = false;
}

QueryResult AssociativeMemory::query(const PackedHypervector& query_hv) const {
  if (query_hv.dimension() != dimension_) {
    throw std::invalid_argument("AssociativeMemory::query: dimension mismatch");
  }
  if (!quantized_) {
    return scan_classes(accumulators_.size(), [&](std::size_t c) {
      return counter_cosine(accumulators_[c].counts(), query_hv.words().data());
    });
  }
  finalize();
  return scan_classes(accumulators_.size(), [&](std::size_t c) {
    return similarity(cached_class_vectors_[c], query_hv, metric_);
  });
}

}  // namespace graphhd::hdc
