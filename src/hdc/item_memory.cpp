#include "hdc/item_memory.hpp"

#include <stdexcept>

namespace graphhd::hdc {

ItemMemory::ItemMemory(std::size_t dimension, std::uint64_t seed)
    : dimension_(dimension), seed_(seed) {
  if (dimension == 0) {
    throw std::invalid_argument("ItemMemory: dimension must be positive");
  }
}

const Hypervector& ItemMemory::get(std::size_t index) {
  while (index >= vectors_.size()) {
    vectors_.push_back(make(vectors_.size()));
  }
  return vectors_[index];
}

Hypervector ItemMemory::make(std::size_t index) const {
  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(index)));
  return Hypervector::random(dimension_, rng);
}

}  // namespace graphhd::hdc
