/// \file codec.hpp
/// The byte codec the model artifact and the TCP wire protocol share:
/// a little-endian writer and a bounds-checked reader over byte buffers, and
/// the 72-byte GraphHdConfig block both formats carry — v3 config section 1
/// holds it in bytes 0–71 (plus `fitted` in flag bit 3), every ServerHello
/// carries it whole — with the checks every reader of a config applies.
///
/// Internal to the library: core/serialize.cpp and serve/net/wire.cpp are
/// its callers, and docs/formats.md documents the bytes.  The reader and
/// the checks throw the caller's error type (`Error`, any exception type
/// constructible from std::string): wire.cpp passes WireError, the artifact
/// loaders an error whose message starts "load_model: ".

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace graphhd::core::codec {

static_assert(std::endian::native == std::endian::little,
              "the artifact and wire formats are little-endian and the codec copies "
              "values as they sit in memory");

/// Bounds a reader checks before anything is allocated: a corrupted
/// `dimension`, `num_classes` or `vectors_per_class` must surface as a parse
/// error, not as a multi-terabyte allocation (which sanitizer allocators
/// abort on rather than throw).  Real models sit orders of magnitude below
/// them (the paper uses d = 10000).
inline constexpr std::uint64_t kMaxDimension = 100'000'000;        // 400 MB of counters per slot.
inline constexpr std::uint64_t kMaxSlots = 1'000'000;
inline constexpr std::uint64_t kMaxTotalCounters = 1'000'000'000;  // 4 GB of counters overall.

/// The config block: dimension u64, pagerank_iterations u64, damping f64,
/// identifier u32, metric u32, backend u32, flags u32, retrain_epochs u64,
/// vectors_per_class u64, neighborhood_rounds u64, seed u64.
inline constexpr std::size_t kConfigBytes = 72;

/// Flag bits 0–2 hold the config's booleans; bits 3 and up belong to the
/// format that carries the block.
inline constexpr std::uint32_t kFlagQuantized = 1u << 0;
inline constexpr std::uint32_t kFlagBitslice = 1u << 1;
inline constexpr std::uint32_t kFlagVertexLabels = 1u << 2;

/// Little-endian appender over a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u32(std::uint32_t value) { put(&value, sizeof value); }
  void u64(std::uint64_t value) { put(&value, sizeof value); }
  void f64_bits(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void bytes(const void* data, std::size_t size) { put(data, size); }

 private:
  void put(const void* data, std::size_t size) {
    if (size == 0) return;
    const std::size_t offset = out_.size();
    out_.resize(offset + size);
    std::memcpy(out_.data() + offset, data, size);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader; every overrun throws `Error` naming
/// what was being read.
template <typename Error>
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - offset_; }

  std::uint32_t u32(const char* what = "u32") {
    std::uint32_t value = 0;
    get(&value, sizeof value, what);
    return value;
  }

  std::uint64_t u64(const char* what = "u64") {
    std::uint64_t value = 0;
    get(&value, sizeof value, what);
    return value;
  }

  double f64_bits(const char* what = "f64") { return std::bit_cast<double>(u64(what)); }

  void bytes(void* out, std::size_t size, const char* what) { get(out, size, what); }

 private:
  void get(void* out, std::size_t size, const char* what) {
    if (remaining() < size) {
      throw Error(std::string("truncated input: expected ") + what);
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Writes the config block.  `format_flags` (bits 3 and up) are OR-ed into
/// the flags word.
inline void write_config(ByteWriter& out, const GraphHdConfig& config,
                         std::uint32_t format_flags = 0) {
  out.u64(config.dimension);
  out.u64(config.pagerank_iterations);
  out.f64_bits(config.pagerank_damping);
  out.u32(static_cast<std::uint32_t>(config.identifier));
  out.u32(static_cast<std::uint32_t>(config.metric));
  out.u32(static_cast<std::uint32_t>(config.backend));
  std::uint32_t flags = format_flags;
  if (config.quantized_model) flags |= kFlagQuantized;
  if (config.use_bitslice_bundling) flags |= kFlagBitslice;
  if (config.use_vertex_labels) flags |= kFlagVertexLabels;
  out.u32(flags);
  out.u64(config.retrain_epochs);
  out.u64(config.vectors_per_class);
  out.u64(config.neighborhood_rounds);
  out.u64(config.seed);
}

/// What the checks find wrong, as a message, or "" when nothing is.  They
/// live in codec.cpp; the templates below throw the caller's `Error` with
/// the message, so neither format compiles the checks into its own code.
[[nodiscard]] std::string tag_problem(std::int64_t identifier, std::int64_t metric,
                                      std::int64_t backend);
[[nodiscard]] std::string config_problem(const GraphHdConfig& config);
[[nodiscard]] std::string layout_problem(const GraphHdConfig& config, std::uint64_t num_classes);

/// Stores raw identifier, metric and backend tags into `config`.  A tag
/// outside its enum throws before the cast: an enumerator without a meaning
/// would be undefined behaviour in every later switch over it.
template <typename Error>
void set_tags(GraphHdConfig& config, std::int64_t identifier, std::int64_t metric,
              std::int64_t backend) {
  if (const std::string problem = tag_problem(identifier, metric, backend); !problem.empty()) {
    throw Error(problem);
  }
  config.identifier = static_cast<VertexIdentifier>(identifier);
  config.metric = static_cast<hdc::Similarity>(metric);
  config.backend = static_cast<Backend>(backend);
}

/// A config block read back, with the flag bits the block does not own.
struct ConfigBlock {
  GraphHdConfig config;
  std::uint32_t format_flags = 0;
};

/// Reads a config block and checks its enum tags (set_tags).  Leaves the
/// value checks to check_config and the bits in `format_flags` to the
/// caller.
template <typename Error>
[[nodiscard]] ConfigBlock read_config(ByteReader<Error>& in) {
  ConfigBlock block;
  GraphHdConfig& config = block.config;
  config.dimension = in.u64("dimension");
  config.pagerank_iterations = in.u64("pagerank_iterations");
  config.pagerank_damping = in.f64_bits("pagerank_damping");
  const std::uint32_t identifier = in.u32("identifier");
  const std::uint32_t metric = in.u32("metric");
  const std::uint32_t backend = in.u32("backend");
  const std::uint32_t flags = in.u32("flags");
  config.retrain_epochs = in.u64("retrain_epochs");
  config.vectors_per_class = in.u64("vectors_per_class");
  config.neighborhood_rounds = in.u64("neighborhood_rounds");
  config.seed = in.u64("seed");
  set_tags<Error>(config, identifier, metric, backend);
  config.quantized_model = (flags & kFlagQuantized) != 0;
  config.use_bitslice_bundling = (flags & kFlagBitslice) != 0;
  config.use_vertex_labels = (flags & kFlagVertexLabels) != 0;
  block.format_flags = flags & ~(kFlagQuantized | kFlagBitslice | kFlagVertexLabels);
  return block;
}

/// The checks every config from outside passes, whichever format carried
/// it: GraphHdConfig::validate() and dimension <= kMaxDimension.
template <typename Error>
void check_config(const GraphHdConfig& config) {
  if (const std::string problem = config_problem(config); !problem.empty()) {
    throw Error(problem);
  }
}

/// The class layout an artifact allocates: num_classes >= 2 and the slot
/// and counter bounds.  Call after check_config, which rules out dimension 0.
template <typename Error>
void check_layout(const GraphHdConfig& config, std::uint64_t num_classes) {
  if (const std::string problem = layout_problem(config, num_classes); !problem.empty()) {
    throw Error(problem);
  }
}

}  // namespace graphhd::core::codec
