/// \file tcp_server.hpp
/// TCP front end over serve::Server — the socket half of the RPC gap the
/// ROADMAP's packed-inference-server item left open.
///
/// One IO thread owns every socket: it accepts connections on a poll() loop,
/// answers each ClientHello with the ServerHello (config + hash, so clients
/// detect encoder mismatch before submitting), parses length-prefixed
/// request frames out of the per-connection read buffer, and feeds the
/// decoded queries straight into the wrapped serve::Server queue via the
/// callback submit path (a dense frame is packed first: the server queues
/// packed words only).  The batched-coalescing hot path is untouched:
/// requests from any number of sockets coalesce into the same
/// predict_encoded_batch sweeps as in-process submits, and responses carry
/// the raw IEEE-754 score bits, so remote predictions are bit-identical
/// (gated by bench/stress_net).
///
/// Completion callbacks run on serve::Server worker threads; they never
/// touch a socket.  A callback encodes the response frame, appends it to the
/// connection's mutex-guarded outbox and wakes the IO thread through a
/// self-pipe — the IO thread alone reads, writes, accepts and closes.
///
/// Failure containment (the bugfix discipline of this layer): every
/// malformed input — bad handshake, unknown frame type, truncated or
/// oversized frame, payload/dimension mismatch — is a *per-connection*
/// event.  The offending connection gets a best-effort error frame and is
/// closed (or, for recoverable request-level errors like a dimension
/// mismatch, an error frame and stays open); the server and every other
/// connection keep serving.  Fuzzed by tests/test_net.cpp and the
/// >=256-case malformed-frame pass in bench/stress_net.
///
/// stop() is graceful: stop accepting, read what the sockets already hold
/// once (those requests were sent before the stop), wait until every
/// submitted request's callback has deposited its response, flush the
/// outboxes (bounded by drain_timeout_ms), then close and join.  The
/// destructor calls stop() and closes the wake pipe last, so no callback can
/// outlive the object or write to a closed descriptor.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/net/wire.hpp"
#include "serve/server.hpp"

namespace graphhd::serve::net {

struct TcpServerConfig {
  /// Address to bind; loopback by default (expose deliberately).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Per-frame ceiling enforced on the length prefix before any allocation.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Concurrent connections; accepts beyond this are immediately closed.
  std::size_t max_connections = 256;
  /// stop() flushes pending responses for at most this long before closing.
  std::size_t drain_timeout_ms = 2000;
  /// listen(2) backlog.
  int backlog = 64;
};

/// Monotonic counters (snapshot via stats()).
struct TcpServerStats {
  std::uint64_t connections = 0;      ///< accepted (including later-closed).
  std::uint64_t requests = 0;         ///< request frames fed into the server.
  std::uint64_t responses = 0;        ///< response frames queued for write.
  std::uint64_t protocol_errors = 0;  ///< error frames sent (any code).
};

/// Socket front end over an existing serve::Server (which the caller keeps
/// alive for at least the TcpServer's lifetime).
class TcpServer {
 public:
  /// Binds, listens and starts the IO thread; throws std::runtime_error
  /// (with errno text) when the socket cannot be set up.
  TcpServer(Server& server, TcpServerConfig config = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The actually bound port (resolves port=0 ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] const TcpServerConfig& config() const noexcept { return config_; }

  [[nodiscard]] TcpServerStats stats() const noexcept;

  /// Graceful shutdown (see file comment).  Idempotent; called by ~TcpServer.
  void stop();

 private:
  /// Per-connection state.  The IO thread owns fd and the read-side fields;
  /// worker callbacks only touch the mutex-guarded outbox and the atomics.
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> inbox;      ///< unparsed received bytes (IO thread).
    bool handshaken = false;              ///< ClientHello seen (IO thread).
    bool draining = false;                ///< stop reading; close once outbox flushes.
    std::atomic<bool> dead{false};        ///< socket closed or poisoned.
    std::atomic<std::size_t> in_flight{0};///< requests submitted, response pending.
    std::mutex outbox_mutex;
    std::vector<std::uint8_t> outbox;     ///< bytes awaiting write (under mutex).
    std::size_t outbox_offset = 0;        ///< written prefix of outbox (IO thread...
                                          ///< guarded by outbox_mutex while writing).
  };

  void io_loop();
  void accept_ready();
  bool read_ready(const std::shared_ptr<Connection>& conn);
  bool write_ready(const std::shared_ptr<Connection>& conn);
  /// Parses and dispatches whatever complete messages sit in conn->inbox.
  /// Returns false when the connection must close (protocol poison).
  bool drain_inbox(const std::shared_ptr<Connection>& conn);
  /// Decodes one request body and submits it to the serve::Server.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    std::span<const std::uint8_t> body);
  void submit_request(const std::shared_ptr<Connection>& conn, RequestFrame&& request);
  /// Releases one submitted request's hold on `conn` and on stop() — the
  /// last thing a completion does with this object.
  void finish_request(Connection& conn) noexcept;
  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                  ErrorCode code, std::string_view message);
  void enqueue_bytes(const std::shared_ptr<Connection>& conn,
                     std::vector<std::uint8_t> bytes);
  void wake() noexcept;

  Server& server_;
  TcpServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::vector<std::shared_ptr<Connection>> connections_;  ///< IO thread only.

  /// Requests submitted whose callback has not yet deposited a response.
  /// stop() blocks on this reaching zero before the final flush.
  std::atomic<std::size_t> outstanding_{0};
  std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;

  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_responses_{0};
  std::atomic<std::uint64_t> stat_errors_{0};

  std::thread io_thread_;
  std::once_flag stop_once_;
};

}  // namespace graphhd::serve::net
