/// \file tcp_client.hpp
/// Blocking TCP client for the graphhd wire protocol (serve/net/wire.hpp).
///
/// The constructor connects (with a timeout), performs the handshake and
/// validates the ServerHello — so a constructed client is always talking to
/// a compatible server and knows the model's full GraphHdConfig, its
/// FNV-1a config hash, the class count and which payload representation the
/// server scores.  `graphhd_cli predict --remote` builds its local encoder
/// from exactly this handshake config, never reading the model artifact.
///
/// Two call styles:
///  * predict(query)             — sync: one request, wait for its response;
///  * submit(query) -> id        — pipelined: fire-and-continue, then
///    wait(id)                   — collect in any order (responses arriving
///                                 out of order are parked until asked for).
///
/// Every failure carries a NetError with a machine-readable kind — the
/// taxonomy docs/serving.md documents: kRefused / kConnectTimeout (connect),
/// kHandshakeMismatch (wrong protocol or wrong model), kTimeout (read
/// deadline), kClosed (mid-stream EOF), kOversizedFrame, kProtocol
/// (undecodable bytes), kRemoteError (a well-formed error frame from the
/// server, message included).
///
/// Not thread-safe: one TcpClient per thread.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/net/wire.hpp"

namespace graphhd::serve::net {

/// Classification of a client-side network failure.
enum class NetErrorKind {
  kRefused,            ///< connection refused / unreachable.
  kConnectTimeout,     ///< connect() did not complete in time.
  kTimeout,            ///< read deadline expired mid-protocol.
  kHandshakeMismatch,  ///< wrong magic/version, an invalid config, or config hash != expected.
  kProtocol,           ///< undecodable bytes from the server.
  kOversizedFrame,     ///< peer declared a frame above the configured limit.
  kClosed,             ///< mid-stream EOF (server closed the connection).
  kRemoteError,        ///< server answered with an error frame (message kept).
};

[[nodiscard]] const char* to_string(NetErrorKind kind) noexcept;

class NetError : public std::runtime_error {
 public:
  NetError(NetErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] NetErrorKind kind() const noexcept { return kind_; }

 private:
  NetErrorKind kind_;
};

struct TcpClientConfig {
  std::size_t connect_timeout_ms = 5000;
  /// Deadline for each blocking read step; GRAPHHD_NET_TIMEOUT_MS overrides
  /// the CLI's default.
  std::size_t read_timeout_ms = 5000;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// When set, the handshake fails with kHandshakeMismatch unless the
  /// server's config hash equals this (pin a client to one exact model).
  std::optional<std::uint64_t> expect_config_hash{};
};

/// One connection to a TcpServer.
class TcpClient {
 public:
  /// Connects and handshakes; throws NetError on any failure.
  TcpClient(const std::string& host, std::uint16_t port, TcpClientConfig config = {});
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  // ---- handshake results ----
  [[nodiscard]] const core::GraphHdConfig& config() const noexcept { return hello_.config; }
  [[nodiscard]] std::uint64_t config_hash() const noexcept { return hello_.config_hash; }
  [[nodiscard]] std::uint64_t num_classes() const noexcept { return hello_.num_classes; }
  /// True when the server asks for packed frames (send encode_packed
  /// output).  Every current server does; a dense-only peer predates it.
  [[nodiscard]] bool packed_mode() const noexcept {
    return hello_.representation == Representation::kPacked;
  }

  // ---- sync ----
  [[nodiscard]] core::Prediction predict(const hdc::PackedHypervector& query);
  [[nodiscard]] core::Prediction predict(const hdc::Hypervector& query);

  // ---- pipelined ----
  /// Sends a request without waiting; returns its id for wait().
  std::uint64_t submit(const hdc::PackedHypervector& query);
  std::uint64_t submit(const hdc::Hypervector& query);
  /// Blocks until the response for `id` arrives (parking any other responses
  /// that show up first).  Throws NetError; kRemoteError when the server
  /// answered this id with an error frame.
  [[nodiscard]] core::Prediction wait(std::uint64_t id);

  /// Pipelines the whole batch, then collects in order.
  [[nodiscard]] std::vector<core::Prediction> predict_batch(
      std::span<const hdc::PackedHypervector> queries);

 private:
  void connect_with_timeout(const std::string& host, std::uint16_t port);
  void handshake();
  void send_all(std::span<const std::uint8_t> bytes);
  /// Reads exactly `size` bytes or throws (kTimeout / kClosed).
  void read_exact(std::uint8_t* out, std::size_t size);
  /// Reads one complete frame body off the socket.
  [[nodiscard]] std::vector<std::uint8_t> read_frame_body();

  TcpClientConfig config_;
  int fd_ = -1;
  ServerHello hello_;
  std::uint64_t next_id_ = 1;
  /// Responses received while waiting for a different id.
  std::map<std::uint64_t, Frame> parked_;
};

}  // namespace graphhd::serve::net
