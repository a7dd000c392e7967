#include "hdc/hypervector.hpp"

#include <stdexcept>

namespace graphhd::hdc {

Hypervector::Hypervector(std::vector<std::int8_t> components) : data_(std::move(components)) {
  for (const std::int8_t c : data_) {
    if (c != 1 && c != -1) {
      throw std::invalid_argument("Hypervector: components must be +1 or -1");
    }
  }
}

}  // namespace graphhd::hdc
