/// \file wire.hpp
/// Binary wire protocol of the TCP serving front end.
///
/// Everything on the socket is little-endian and length-prefixed.  A
/// connection opens with a fixed handshake, then carries independent frames
/// in both directions:
///
///   client -> server   ClientHello   { magic u32, version u32 }
///   server -> client   ServerHello   { magic u32, version u32,
///                                      representation u32, reserved u32,
///                                      config_hash u64, num_classes u64,
///                                      config_len u64, config bytes }
///   either direction   Frame         { length u32, type u32, request_id u64,
///                                      body... }
///
/// The ServerHello carries the snapshot's *entire* canonical config encoding
/// (wire::encode_config) plus its FNV-1a 64 hash, so a client detects an
/// encoder mismatch before submitting anything — and can construct a local
/// GraphHdEncoder from the handshake alone, without ever reading the model
/// artifact (that is how `graphhd_cli predict --remote` encodes).  The
/// config bytes are the 72-byte block of core/codec.hpp, the same bytes as
/// v3 config section 1, and a hello's config passes the same checks as an
/// artifact's.
///
/// Frame bodies (the u32 length counts every byte after the length field):
///
///   kRequest   representation u32, reserved u32, dimension u64, payload
///              (packed: ceil(d/64) u64 words; dense: d int8 components)
///   kResponse  label u64, score-bits u64, class_count u32, reserved u32,
///              class_count x u64 score-bits
///   kError     code u32, text_len u32, text bytes
///
/// Similarity scores travel as the raw IEEE-754 bit patterns of the doubles
/// (std::bit_cast), so a remote Prediction is *bit-identical* to the
/// in-process predict_encoded_batch result — the property bench/stress_net
/// gates in CI.
///
/// Decoding is fail-closed: every parse error (bad magic, unknown type or
/// representation, truncated body, payload length that disagrees with the
/// declared dimension, oversized frame) throws WireError, which the server
/// converts into a per-connection error frame or close — never a crash
/// (fuzzed in tests/test_net.cpp and the stress_net malformed-frame pass).
/// Docs: docs/formats.md "TCP wire protocol".

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/packed.hpp"

namespace graphhd::serve::net {

/// Malformed bytes on the wire (truncated, oversized, wrong magic, unknown
/// tags, inconsistent lengths).  Per-connection, never fatal to the server.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& message) : std::runtime_error(message) {}
};

/// "GHDW" read as a little-endian u32.
inline constexpr std::uint32_t kMagic = 0x57444847u;
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Ceiling on the u32 length prefix either side accepts.  Generous: a
/// d=1,000,000 packed request is ~125 KB, a 10,000-class response ~80 KB.
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

/// Fixed sizes of the handshake messages (ServerHello adds config_len
/// trailing config bytes after its fixed part).
inline constexpr std::size_t kClientHelloBytes = 8;
inline constexpr std::size_t kServerHelloFixedBytes = 40;

enum class FrameType : std::uint32_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
};

/// Payload representation of a request frame.  The server accepts both and
/// packs dense frames before it queues them; its ServerHello always
/// announces kPacked, the ~8x smaller frame.  A hello with kDense (from an
/// older server) still decodes.
enum class Representation : std::uint32_t {
  kPacked = 1,
  kDense = 2,
};

/// Error-frame codes (the failure taxonomy; docs/serving.md).
enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,   ///< body failed to parse; connection closes after this.
  kBadDimension = 2,     ///< request dimension != served model's.
  kBadRepresentation = 3,///< reserved: a representation the server cannot accept
                         ///< (the current server accepts both; see tcp_server.cpp).
  kShuttingDown = 4,     ///< server stopped accepting work.
  kInternal = 5,         ///< unexpected server-side failure.
};

struct RequestFrame {
  std::uint64_t request_id = 0;
  Representation representation = Representation::kPacked;
  std::uint64_t dimension = 0;
  std::vector<std::uint64_t> packed_words;  ///< payload when kPacked.
  std::vector<std::int8_t> dense;           ///< payload when kDense.
};

struct ResponseFrame {
  std::uint64_t request_id = 0;
  core::Prediction prediction;  ///< scores reconstructed bit-exactly.
};

struct ErrorFrame {
  std::uint64_t request_id = 0;  ///< 0 when the error is not tied to a request.
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// One decoded frame; `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kError;
  RequestFrame request;
  ResponseFrame response;
  ErrorFrame error;
};

/// ServerHello contents after decoding.
struct ServerHello {
  Representation representation = Representation::kPacked;
  std::uint64_t config_hash = 0;
  std::uint64_t num_classes = 0;
  core::GraphHdConfig config;
};

/// Canonical fixed-width encoding of every GraphHdConfig field (72 bytes) —
/// the bytes the handshake carries and config_hash() digests.
[[nodiscard]] std::vector<std::uint8_t> encode_config(const core::GraphHdConfig& config);
/// Inverse of encode_config; throws WireError on truncation, invalid enum
/// tags, or a config the artifact loaders would reject (a failed
/// GraphHdConfig::validate() or a dimension above their bound).  Accepts
/// (and ignores) trailing bytes and flag bits from future protocol versions.
[[nodiscard]] core::GraphHdConfig decode_config(std::span<const std::uint8_t> bytes);

/// FNV-1a 64 digest of encode_config(config) — the encoder-compatibility
/// fingerprint exchanged in the handshake.
[[nodiscard]] std::uint64_t config_hash(const core::GraphHdConfig& config);

[[nodiscard]] std::vector<std::uint8_t> encode_client_hello();
/// Validates a ClientHello; throws WireError on bad magic or version.
void check_client_hello(std::span<const std::uint8_t> bytes);

/// The ServerHello for a snapshot with `config` and `num_classes`.  Its
/// representation field is always kPacked: the server packs dense frames
/// itself, so packed frames are what a client should send.
[[nodiscard]] std::vector<std::uint8_t> encode_server_hello(const core::GraphHdConfig& config,
                                                            std::size_t num_classes);
/// Parses the fixed part of a ServerHello; returns the number of trailing
/// config bytes to read next.  Throws WireError on bad magic/version.
[[nodiscard]] std::uint64_t check_server_hello_fixed(std::span<const std::uint8_t> fixed);
/// Completes ServerHello decoding from the fixed part + config bytes (the
/// config checked as decode_config does).
[[nodiscard]] ServerHello decode_server_hello(std::span<const std::uint8_t> fixed,
                                              std::span<const std::uint8_t> config_bytes);

/// Frame encoders.  Each returns the complete frame — u32 length prefix
/// included — ready to write to the socket.
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(std::uint64_t request_id,
                                                             const hdc::PackedHypervector& query);
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(std::uint64_t request_id,
                                                             const hdc::Hypervector& query);
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame(std::uint64_t request_id,
                                                              const core::Prediction& prediction);
[[nodiscard]] std::vector<std::uint8_t> encode_error_frame(std::uint64_t request_id,
                                                           ErrorCode code,
                                                           std::string_view message);

/// Decodes one frame body (the bytes *after* the u32 length prefix).  Throws
/// WireError on any malformation; never reads out of bounds.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> body);

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

}  // namespace graphhd::serve::net
