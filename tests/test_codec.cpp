/// One config block, one set of checks: the 72-byte GraphHdConfig block of
/// core/codec.hpp is what a v2 text header spells out line by line, what v3
/// config section 1 starts with, and what a ServerHello carries.  A block
/// that fails the checks is refused by every reader of it, and the two
/// binary formats carry the same bytes.

#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/dataset.hpp"
#include "graph/generators.hpp"
#include "hdc/random.hpp"
#include "serve/net/wire.hpp"

namespace {

using namespace graphhd;
using Block = std::vector<std::uint8_t>;

// Field offsets inside the config block (docs/formats.md).
constexpr std::size_t kDimensionAt = 0;
constexpr std::size_t kIterationsAt = 8;
constexpr std::size_t kDampingAt = 16;
constexpr std::size_t kIdentifierAt = 24;
constexpr std::size_t kMetricAt = 28;
constexpr std::size_t kBackendAt = 32;
constexpr std::size_t kFlagsAt = 36;
constexpr std::size_t kRetrainAt = 40;
constexpr std::size_t kVectorsPerClassAt = 48;
constexpr std::size_t kRoundsAt = 56;
constexpr std::size_t kSeedAt = 64;
constexpr std::uint32_t kFittedFlag = 1u << 3;

// v3 section table entry 0 (the config section): {u32 id, u32 reserved,
// u64 offset, u64 length, u64 checksum} at byte 16.
constexpr std::size_t kConfigEntryAt = 16;

template <typename T, typename Bytes>
T get(const Bytes& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

template <typename T, typename Bytes>
void put(Bytes& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

/// A fitted model whose config sets every field off its default, so each
/// one is carried through all three formats.
core::GraphHdModel trained_model() {
  core::GraphHdConfig config;
  config.dimension = 200;
  config.pagerank_iterations = 7;
  config.pagerank_damping = 0.9;
  config.identifier = core::VertexIdentifier::kDegree;
  config.metric = hdc::Similarity::kInverseHamming;
  config.backend = core::Backend::kPackedBinary;
  config.retrain_epochs = 2;
  config.vectors_per_class = 2;
  config.use_vertex_labels = true;
  config.neighborhood_rounds = 1;
  config.seed = 0xc0dec;
  data::GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < 4; ++i) {
    dataset.add(graph::star_graph(6 + i), 0);
    dataset.add(graph::cycle_graph(6 + i), 1);
  }
  core::GraphHdModel model(config, 2);
  model.fit(dataset);
  return model;
}

/// The lines a v2 text header spells a block out in, `backend` to `seed`,
/// in the text writer's order and number format.
std::string text_lines(const Block& block) {
  const auto flags = get<std::uint32_t>(block, kFlagsAt);
  std::ostringstream out;
  out << "backend " << get<std::uint32_t>(block, kBackendAt) << '\n'
      << "dimension " << get<std::uint64_t>(block, kDimensionAt) << '\n'
      << "pagerank_iterations " << get<std::uint64_t>(block, kIterationsAt) << '\n'
      << "pagerank_damping " << get<double>(block, kDampingAt) << '\n'
      << "identifier " << get<std::uint32_t>(block, kIdentifierAt) << '\n'
      << "metric " << get<std::uint32_t>(block, kMetricAt) << '\n'
      << "quantized " << (flags & 1u) << '\n'
      << "bitslice " << ((flags >> 1) & 1u) << '\n'
      << "retrain_epochs " << get<std::uint64_t>(block, kRetrainAt) << '\n'
      << "vectors_per_class " << get<std::uint64_t>(block, kVectorsPerClassAt) << '\n'
      << "use_vertex_labels " << ((flags >> 2) & 1u) << '\n'
      << "neighborhood_rounds " << get<std::uint64_t>(block, kRoundsAt) << '\n'
      << "seed " << get<std::uint64_t>(block, kSeedAt) << '\n';
  return out.str();
}

/// `text` (a v2 artifact) with its config lines replaced by `block`'s.
std::string with_text_block(const std::string& text, const Block& block) {
  const std::size_t begin = text.find('\n') + 1;  // after "GRAPHHD-MODEL 2".
  const std::size_t end = text.find("num_classes ");
  return text.substr(0, begin) + text_lines(block) + text.substr(end);
}

/// `artifact` (v3) with config bytes 0-71 replaced by `block`, keeping the
/// artifact's own flag bit 3 (fitted), and the section checksum recomputed.
std::string with_v3_block(std::string artifact, const Block& block) {
  const auto offset = get<std::uint64_t>(artifact, kConfigEntryAt + 8);
  const auto length = get<std::uint64_t>(artifact, kConfigEntryAt + 16);
  const std::uint32_t fitted = get<std::uint32_t>(artifact, offset + kFlagsAt) & kFittedFlag;
  std::copy(block.begin(), block.end(), artifact.begin() + static_cast<std::ptrdiff_t>(offset));
  put(artifact, offset + kFlagsAt, get<std::uint32_t>(block, kFlagsAt) | fitted);
  const auto* section = reinterpret_cast<const std::uint8_t*>(artifact.data()) + offset;
  put(artifact, kConfigEntryAt + 24, hdc::fnv1a({section, length}));
  return artifact;
}

/// `hello` with its config bytes replaced by `block` and the hash recomputed.
Block with_hello_block(Block hello, const Block& block) {
  std::copy(block.begin(), block.end(),
            hello.begin() + static_cast<std::ptrdiff_t>(serve::net::kServerHelloFixedBytes));
  put(hello, 16, hdc::fnv1a(block));  // config_hash follows magic, version, rep, reserved.
  return hello;
}

struct BadBlock {
  const char* name;
  std::function<void(Block&)> corrupt;
};

const std::vector<BadBlock>& bad_blocks() {
  static const std::vector<BadBlock> rows = {
      {"dimension 0", [](Block& b) { put<std::uint64_t>(b, kDimensionAt, 0); }},
      {"dimension kMaxDimension + 1",
       [](Block& b) { put<std::uint64_t>(b, kDimensionAt, core::codec::kMaxDimension + 1); }},
      {"NaN damping",
       [](Block& b) { put(b, kDampingAt, std::numeric_limits<double>::quiet_NaN()); }},
      {"vectors_per_class 0", [](Block& b) { put<std::uint64_t>(b, kVectorsPerClassAt, 0); }},
      {"identifier 99", [](Block& b) { put<std::uint32_t>(b, kIdentifierAt, 99); }},
      {"packed tag without quantized_model",
       [](Block& b) {
         put<std::uint32_t>(b, kBackendAt, 1);
         put<std::uint32_t>(b, kFlagsAt, get<std::uint32_t>(b, kFlagsAt) & ~1u);
       }},
  };
  return rows;
}

TEST(ConfigCodec, EveryReaderRejectsTheSameBadBlocks) {
  const core::GraphHdModel model = trained_model();
  std::ostringstream text;
  std::ostringstream binary;
  core::save_model_text(model, text);
  core::save_model(model, binary);
  const Block good = serve::net::encode_config(model.config());
  const Block hello = serve::net::encode_server_hello(model.config(), model.num_classes());

  const auto load_text = [&](const Block& block) {
    std::istringstream in(with_text_block(text.str(), block));
    (void)core::load_model(in);
  };
  const auto load_v3 = [&](const Block& block) {
    std::istringstream in(with_v3_block(binary.str(), block));
    (void)core::load_model(in);
  };
  const auto decode_hello = [&](const Block& block) {
    const Block bytes = with_hello_block(hello, block);
    const auto fixed = std::span(bytes).first(serve::net::kServerHelloFixedBytes);
    (void)serve::net::decode_server_hello(
        fixed, std::span(bytes).subspan(serve::net::kServerHelloFixedBytes));
  };

  // The untouched block rebuilds each artifact byte for byte and passes
  // every reader, so each rejection below is the row's doing.
  ASSERT_EQ(with_text_block(text.str(), good), text.str());
  ASSERT_EQ(with_v3_block(binary.str(), good), binary.str());
  ASSERT_EQ(with_hello_block(hello, good), hello);
  EXPECT_NO_THROW(load_text(good));
  EXPECT_NO_THROW(load_v3(good));
  EXPECT_NO_THROW(decode_hello(good));

  for (const BadBlock& row : bad_blocks()) {
    Block bad = good;
    row.corrupt(bad);
    EXPECT_THROW(load_text(bad), std::runtime_error) << row.name;
    EXPECT_THROW(load_v3(bad), std::runtime_error) << row.name;
    EXPECT_THROW(decode_hello(bad), serve::net::WireError) << row.name;
  }
}

TEST(ConfigCodec, HelloCarriesTheV3ConfigBlock) {
  const core::GraphHdModel model = trained_model();
  ASSERT_TRUE(model.fitted());
  std::ostringstream binary;
  core::save_model(model, binary);
  const std::string artifact = binary.str();
  ASSERT_EQ(get<std::uint32_t>(artifact, kConfigEntryAt), 1u);  // the config section.
  const auto offset =
      static_cast<std::ptrdiff_t>(get<std::uint64_t>(artifact, kConfigEntryAt + 8));
  Block section_block(artifact.begin() + offset,
                      artifact.begin() + offset + core::codec::kConfigBytes);
  const auto flags = get<std::uint32_t>(section_block, kFlagsAt);
  EXPECT_EQ(flags & kFittedFlag, kFittedFlag);
  put(section_block, kFlagsAt, flags & ~kFittedFlag);

  const Block hello = serve::net::encode_server_hello(model.config(), model.num_classes());
  EXPECT_EQ(Block(hello.begin() + serve::net::kServerHelloFixedBytes, hello.end()),
            section_block);
}

}  // namespace
