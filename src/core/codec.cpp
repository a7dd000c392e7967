#include "core/codec.hpp"

#include <stdexcept>

namespace graphhd::core::codec {

std::string tag_problem(std::int64_t identifier, std::int64_t metric, std::int64_t backend) {
  const auto out_of_range = [](std::int64_t value, auto last) {
    return value < 0 || value > static_cast<std::int64_t>(last);
  };
  const auto problem = [](const char* name, std::int64_t value) {
    return std::string(name) + " enum value " + std::to_string(value) + " out of range";
  };
  if (out_of_range(identifier, VertexIdentifier::kHarmonic)) {
    return problem("identifier", identifier);
  }
  if (out_of_range(metric, hdc::Similarity::kDot)) return problem("metric", metric);
  if (out_of_range(backend, Backend::kPackedBinary)) return problem("backend", backend);
  return {};
}

std::string config_problem(const GraphHdConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& error) {
    return std::string("invalid config: ") + error.what();
  }
  if (config.dimension > kMaxDimension) {
    return "dimension " + std::to_string(config.dimension) + " exceeds the bound " +
           std::to_string(kMaxDimension);
  }
  return {};
}

std::string layout_problem(const GraphHdConfig& config, std::uint64_t num_classes) {
  if (num_classes < 2) {
    return "num_classes must be >= 2, got " + std::to_string(num_classes);
  }
  if (num_classes > kMaxSlots || config.vectors_per_class > kMaxSlots ||
      num_classes * config.vectors_per_class > kMaxSlots) {
    return "class slot count exceeds the bound " + std::to_string(kMaxSlots);
  }
  if (num_classes * config.vectors_per_class > kMaxTotalCounters / config.dimension) {
    return "total counter count exceeds the bound " + std::to_string(kMaxTotalCounters);
  }
  return {};
}

}  // namespace graphhd::core::codec
