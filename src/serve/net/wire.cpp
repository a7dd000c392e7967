#include "serve/net/wire.hpp"

#include <cstring>

#include "core/codec.hpp"
#include "hdc/random.hpp"

namespace graphhd::serve::net {

namespace {

namespace codec = core::codec;

using Writer = codec::ByteWriter;
using Reader = codec::ByteReader<WireError>;

/// Reserves the u32 length prefix, then back-patches it once the body is
/// written — every encoder funnels through this so the prefix can never
/// disagree with the body length.
std::vector<std::uint8_t> finish_frame(std::vector<std::uint8_t> frame) {
  const std::uint64_t body = frame.size() - sizeof(std::uint32_t);
  if (body > kMaxFrameBytes) {
    throw WireError("frame body exceeds kMaxFrameBytes");
  }
  const auto length = static_cast<std::uint32_t>(body);
  std::memcpy(frame.data(), &length, sizeof length);
  return frame;
}

std::vector<std::uint8_t> begin_frame(FrameType type, std::uint64_t request_id) {
  std::vector<std::uint8_t> frame;
  frame.resize(sizeof(std::uint32_t));  // length prefix, patched by finish_frame.
  Writer writer(frame);
  writer.u32(static_cast<std::uint32_t>(type));
  writer.u64(request_id);
  return frame;
}

}  // namespace

std::vector<std::uint8_t> encode_config(const core::GraphHdConfig& config) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(codec::kConfigBytes);
  Writer writer(bytes);
  codec::write_config(writer, config);
  return bytes;
}

core::GraphHdConfig decode_config(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  // Flag bits past the config's own are ignored, like trailing bytes: both
  // belong to future protocol versions.
  const core::GraphHdConfig config = codec::read_config(reader).config;
  codec::check_config<WireError>(config);
  return config;
}

std::uint64_t config_hash(const core::GraphHdConfig& config) {
  return hdc::fnv1a(encode_config(config));
}

std::vector<std::uint8_t> encode_client_hello() {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kClientHelloBytes);
  Writer writer(bytes);
  writer.u32(kMagic);
  writer.u32(kProtocolVersion);
  return bytes;
}

void check_client_hello(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  if (reader.u32() != kMagic) {
    throw WireError("handshake: bad magic (not a graphhd client)");
  }
  const std::uint32_t version = reader.u32();
  if (version != kProtocolVersion) {
    throw WireError("handshake: unsupported protocol version " + std::to_string(version));
  }
}

std::vector<std::uint8_t> encode_server_hello(const core::GraphHdConfig& config,
                                              std::size_t num_classes) {
  const std::vector<std::uint8_t> config_bytes = encode_config(config);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kServerHelloFixedBytes + config_bytes.size());
  Writer writer(bytes);
  writer.u32(kMagic);
  writer.u32(kProtocolVersion);
  writer.u32(static_cast<std::uint32_t>(Representation::kPacked));
  writer.u32(0);  // reserved
  writer.u64(hdc::fnv1a(config_bytes));
  writer.u64(num_classes);
  writer.u64(config_bytes.size());
  writer.bytes(config_bytes.data(), config_bytes.size());
  return bytes;
}

std::uint64_t check_server_hello_fixed(std::span<const std::uint8_t> fixed) {
  Reader reader(fixed);
  if (reader.u32() != kMagic) {
    throw WireError("handshake: bad magic (not a graphhd server)");
  }
  const std::uint32_t version = reader.u32();
  if (version != kProtocolVersion) {
    throw WireError("handshake: unsupported protocol version " + std::to_string(version));
  }
  reader.u32();  // representation (re-read in decode_server_hello)
  reader.u32();  // reserved
  reader.u64();  // config_hash
  reader.u64();  // num_classes
  const std::uint64_t config_len = reader.u64();
  if (config_len > kMaxFrameBytes) {
    throw WireError("handshake: oversized config section");
  }
  return config_len;
}

ServerHello decode_server_hello(std::span<const std::uint8_t> fixed,
                                std::span<const std::uint8_t> config_bytes) {
  (void)check_server_hello_fixed(fixed);
  Reader reader(fixed);
  reader.u32();  // magic
  reader.u32();  // version
  const std::uint32_t representation = reader.u32();
  reader.u32();  // reserved
  ServerHello hello;
  hello.config_hash = reader.u64();
  hello.num_classes = reader.u64();
  reader.u64();  // config_len (== config_bytes.size(), enforced by the caller's read)
  if (representation != static_cast<std::uint32_t>(Representation::kPacked) &&
      representation != static_cast<std::uint32_t>(Representation::kDense)) {
    throw WireError("handshake: unknown representation tag");
  }
  hello.representation = static_cast<Representation>(representation);
  hello.config = decode_config(config_bytes);
  if (hdc::fnv1a(config_bytes) != hello.config_hash) {
    throw WireError("handshake: config hash does not match config bytes");
  }
  return hello;
}

std::vector<std::uint8_t> encode_request_frame(std::uint64_t request_id,
                                               const hdc::PackedHypervector& query) {
  std::vector<std::uint8_t> frame = begin_frame(FrameType::kRequest, request_id);
  Writer writer(frame);
  writer.u32(static_cast<std::uint32_t>(Representation::kPacked));
  writer.u32(0);  // reserved
  writer.u64(query.dimension());
  const std::span<const std::uint64_t> words = query.words();
  writer.bytes(words.data(), words.size_bytes());
  return finish_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_request_frame(std::uint64_t request_id,
                                               const hdc::Hypervector& query) {
  std::vector<std::uint8_t> frame = begin_frame(FrameType::kRequest, request_id);
  Writer writer(frame);
  writer.u32(static_cast<std::uint32_t>(Representation::kDense));
  writer.u32(0);  // reserved
  writer.u64(query.dimension());
  const std::span<const std::int8_t> components = query.components();
  writer.bytes(components.data(), components.size_bytes());
  return finish_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_response_frame(std::uint64_t request_id,
                                                const core::Prediction& prediction) {
  std::vector<std::uint8_t> frame = begin_frame(FrameType::kResponse, request_id);
  Writer writer(frame);
  writer.u64(prediction.label);
  writer.f64_bits(prediction.score);
  writer.u32(static_cast<std::uint32_t>(prediction.class_scores.size()));
  writer.u32(0);  // reserved
  for (const double score : prediction.class_scores) {
    writer.f64_bits(score);
  }
  return finish_frame(std::move(frame));
}

std::vector<std::uint8_t> encode_error_frame(std::uint64_t request_id, ErrorCode code,
                                             std::string_view message) {
  // Error frames must always encode successfully: truncate giant messages
  // instead of tripping the finish_frame size check.
  if (message.size() > 4096) {
    message = message.substr(0, 4096);
  }
  std::vector<std::uint8_t> frame = begin_frame(FrameType::kError, request_id);
  Writer writer(frame);
  writer.u32(static_cast<std::uint32_t>(code));
  writer.u32(static_cast<std::uint32_t>(message.size()));
  writer.bytes(message.data(), message.size());
  return finish_frame(std::move(frame));
}

Frame decode_frame(std::span<const std::uint8_t> body) {
  Reader reader(body);
  Frame frame;
  const std::uint32_t type = reader.u32();
  const std::uint64_t request_id = reader.u64();
  switch (type) {
    case static_cast<std::uint32_t>(FrameType::kRequest): {
      frame.type = FrameType::kRequest;
      RequestFrame& request = frame.request;
      request.request_id = request_id;
      const std::uint32_t representation = reader.u32();
      reader.u32();  // reserved
      request.dimension = reader.u64();
      if (request.dimension == 0 || request.dimension > kMaxFrameBytes) {
        throw WireError("request: implausible dimension " + std::to_string(request.dimension));
      }
      if (representation == static_cast<std::uint32_t>(Representation::kPacked)) {
        request.representation = Representation::kPacked;
        const std::size_t words = (request.dimension + 63) / 64;
        if (reader.remaining() != words * sizeof(std::uint64_t)) {
          throw WireError("request: packed payload length does not match dimension");
        }
        request.packed_words.resize(words);
        reader.bytes(request.packed_words.data(), words * sizeof(std::uint64_t),
                     "packed payload");
      } else if (representation == static_cast<std::uint32_t>(Representation::kDense)) {
        request.representation = Representation::kDense;
        if (reader.remaining() != request.dimension) {
          throw WireError("request: dense payload length does not match dimension");
        }
        request.dense.resize(request.dimension);
        reader.bytes(request.dense.data(), request.dimension, "dense payload");
        for (const std::int8_t component : request.dense) {
          if (component != 1 && component != -1) {
            throw WireError("request: dense component outside {-1, +1}");
          }
        }
      } else {
        throw WireError("request: unknown representation tag");
      }
      return frame;
    }
    case static_cast<std::uint32_t>(FrameType::kResponse): {
      frame.type = FrameType::kResponse;
      ResponseFrame& response = frame.response;
      response.request_id = request_id;
      response.prediction.label = reader.u64();
      response.prediction.score = reader.f64_bits();
      const std::uint32_t count = reader.u32();
      reader.u32();  // reserved
      if (reader.remaining() != std::size_t{count} * sizeof(std::uint64_t)) {
        throw WireError("response: class-score section length mismatch");
      }
      response.prediction.class_scores.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        response.prediction.class_scores[i] = reader.f64_bits();
      }
      return frame;
    }
    case static_cast<std::uint32_t>(FrameType::kError): {
      frame.type = FrameType::kError;
      ErrorFrame& error = frame.error;
      error.request_id = request_id;
      error.code = static_cast<ErrorCode>(reader.u32());
      const std::uint32_t text_len = reader.u32();
      if (reader.remaining() != text_len) {
        throw WireError("error frame: text length mismatch");
      }
      error.message.resize(text_len);
      if (text_len > 0) {
        reader.bytes(error.message.data(), text_len, "error text");
      }
      return frame;
    }
    default:
      throw WireError("unknown frame type " + std::to_string(type));
  }
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kBadDimension: return "bad-dimension";
    case ErrorCode::kBadRepresentation: return "bad-representation";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

}  // namespace graphhd::serve::net
