#include "serve/net/tcp_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

namespace graphhd::serve::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void close_quietly(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::uint32_t read_le_u32(const std::uint8_t* bytes) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

}  // namespace

TcpServer::TcpServer(Server& server, TcpServerConfig config)
    : server_(server), config_(std::move(config)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw_errno("socket");
  }
  try {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("invalid bind address '" + config_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      throw_errno("bind " + config_.bind_address + ":" + std::to_string(config_.port));
    }
    if (::listen(listen_fd_, config_.backlog) < 0) {
      throw_errno("listen");
    }
    set_nonblocking(listen_fd_);

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
      throw_errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) < 0) {
      throw_errno("pipe");
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    set_nonblocking(wake_read_fd_);
    set_nonblocking(wake_write_fd_);
  } catch (...) {
    close_quietly(listen_fd_);
    close_quietly(wake_read_fd_);
    close_quietly(wake_write_fd_);
    throw;
  }

  io_thread_ = std::thread([this] { io_loop(); });
}

TcpServer::~TcpServer() {
  stop();
  // Closed only now: every completion has made its last wake() (see
  // finish_request), so no write can hit a closed, reused or readerless fd.
  close_quietly(wake_read_fd_);
  close_quietly(wake_write_fd_);
}

TcpServerStats TcpServer::stats() const noexcept {
  return {
      .connections = stat_connections_.load(std::memory_order_relaxed),
      .requests = stat_requests_.load(std::memory_order_relaxed),
      .responses = stat_responses_.load(std::memory_order_relaxed),
      .protocol_errors = stat_errors_.load(std::memory_order_relaxed),
  };
}

void TcpServer::stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    wake();
    // Every submitted request's callback deposits its response frame (or
    // gives up on a dead connection) before decrementing — once the counter
    // hits zero the IO thread only has flushing left to do.
    const auto drained = [this] { return outstanding_.load(std::memory_order_acquire) == 0; };
    {
      std::unique_lock<std::mutex> lock(outstanding_mutex_);
      outstanding_cv_.wait(lock, drained);
    }
    wake();
    if (io_thread_.joinable()) {
      io_thread_.join();
    }
    // Requests the IO thread read after the wait above have completed too
    // (the loop exits only at zero); waiting once more under the mutex means
    // no completion is still inside finish_request when the destructor runs.
    std::unique_lock<std::mutex> lock(outstanding_mutex_);
    outstanding_cv_.wait(lock, drained);
  });
}

void TcpServer::wake() noexcept {
  const char byte = 1;
  // EAGAIN means the pipe already holds a wakeup; any other failure only
  // costs the poll-timeout latency.
  [[maybe_unused]] const ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

void TcpServer::io_loop() {
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> drain_deadline;
  std::vector<pollfd> pollfds;
  std::vector<std::shared_ptr<Connection>> polled;

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && !drain_deadline) {
      drain_deadline = Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
      // POLLIN stays unarmed from here on.  Requests already in the socket
      // buffers were sent before the stop: read them once and answer them,
      // because closing a socket with unread bytes resets the connection and
      // loses the responses queued for it.
      for (const auto& conn : connections_) {
        if (!conn->dead.load(std::memory_order_acquire) && !conn->draining &&
            !read_ready(conn)) {
          conn->dead.store(true, std::memory_order_release);
        }
      }
    }

    pollfds.clear();
    polled.clear();
    pollfds.push_back({.fd = wake_read_fd_, .events = POLLIN, .revents = 0});
    if (!stopping) {
      pollfds.push_back({.fd = listen_fd_, .events = POLLIN, .revents = 0});
    }
    for (const auto& conn : connections_) {
      if (conn->dead.load(std::memory_order_acquire)) {
        continue;
      }
      short events = 0;
      if (!stopping && !conn->draining) {
        events |= POLLIN;
      }
      {
        std::lock_guard<std::mutex> lock(conn->outbox_mutex);
        if (conn->outbox_offset < conn->outbox.size()) {
          events |= POLLOUT;
        }
      }
      if (events != 0) {
        pollfds.push_back({.fd = conn->fd, .events = events, .revents = 0});
        polled.push_back(conn);
      }
    }

    const int rc = ::poll(pollfds.data(), pollfds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      break;  // poll itself failing is unrecoverable; close everything below.
    }

    std::size_t index = 0;
    if (pollfds[index].revents & POLLIN) {
      char scratch[256];
      while (::read(wake_read_fd_, scratch, sizeof scratch) > 0) {
      }
    }
    ++index;
    if (!stopping) {
      if (pollfds[index].revents & POLLIN) {
        accept_ready();
      }
      ++index;
    }
    for (std::size_t c = 0; c < polled.size(); ++c) {
      const auto& conn = polled[c];
      const short revents = pollfds[index + c].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still delivers POLLIN first on Linux;
        // by the time only HUP remains the peer is gone.
        if (!(revents & POLLIN)) {
          conn->dead.store(true, std::memory_order_release);
          continue;
        }
      }
      if (revents & POLLOUT) {
        if (!write_ready(conn)) {
          conn->dead.store(true, std::memory_order_release);
          continue;
        }
      }
      if (revents & POLLIN) {
        if (!read_ready(conn)) {
          conn->dead.store(true, std::memory_order_release);
          continue;
        }
      }
    }

    // Promote fully flushed draining connections to dead, then reap.
    for (const auto& conn : connections_) {
      if (conn->dead.load(std::memory_order_acquire)) {
        continue;
      }
      const bool want_close = conn->draining || stopping;
      if (want_close && conn->in_flight.load(std::memory_order_acquire) == 0) {
        std::lock_guard<std::mutex> lock(conn->outbox_mutex);
        if (conn->outbox_offset >= conn->outbox.size()) {
          conn->dead.store(true, std::memory_order_release);
        }
      }
    }
    std::erase_if(connections_, [](const std::shared_ptr<Connection>& conn) {
      if (conn->dead.load(std::memory_order_acquire) &&
          conn->in_flight.load(std::memory_order_acquire) == 0) {
        close_quietly(conn->fd);
        return true;
      }
      return false;
    });

    if (stopping && outstanding_.load(std::memory_order_acquire) == 0) {
      const bool flushed = connections_.empty();
      if (flushed || Clock::now() >= *drain_deadline) {
        break;
      }
    }
  }

  for (const auto& conn : connections_) {
    conn->dead.store(true, std::memory_order_release);
    close_quietly(conn->fd);
  }
  connections_.clear();
  close_quietly(listen_fd_);
}

void TcpServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN (no more pending) or a transient accept failure.
    }
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    try {
      set_nonblocking(fd);
    } catch (...) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_.push_back(std::move(conn));
  }
}

bool TcpServer::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn->inbox.insert(conn->inbox.end(), buffer, buffer + n);
      // A reader that never frames correctly must not grow the inbox without
      // bound: anything beyond one max frame + header is already poison.
      if (conn->inbox.size() >
          std::size_t{config_.max_frame_bytes} + sizeof(std::uint32_t) + kClientHelloBytes) {
        send_error(conn, 0, ErrorCode::kMalformedFrame, "unframed input overflow");
        conn->draining = true;
        return true;
      }
      continue;
    }
    if (n == 0) {
      return false;  // orderly EOF from the peer.
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;
  }
  return drain_inbox(conn);
}

bool TcpServer::drain_inbox(const std::shared_ptr<Connection>& conn) {
  std::size_t consumed = 0;
  const auto available = [&] { return conn->inbox.size() - consumed; };
  while (!conn->draining) {
    if (!conn->handshaken) {
      if (available() < kClientHelloBytes) {
        break;
      }
      try {
        check_client_hello({conn->inbox.data() + consumed, kClientHelloBytes});
      } catch (const WireError& error) {
        send_error(conn, 0, ErrorCode::kMalformedFrame, error.what());
        conn->draining = true;
        break;
      }
      consumed += kClientHelloBytes;
      conn->handshaken = true;
      const auto snapshot = server_.snapshot();
      enqueue_bytes(conn, encode_server_hello(snapshot->config(), snapshot->num_classes()));
      continue;
    }
    if (available() < sizeof(std::uint32_t)) {
      break;
    }
    const std::uint32_t length = read_le_u32(conn->inbox.data() + consumed);
    if (length > config_.max_frame_bytes) {
      send_error(conn, 0, ErrorCode::kMalformedFrame,
                 "frame length " + std::to_string(length) + " exceeds limit");
      conn->draining = true;
      break;
    }
    if (available() < sizeof(std::uint32_t) + length) {
      break;
    }
    const std::span<const std::uint8_t> body{
        conn->inbox.data() + consumed + sizeof(std::uint32_t), length};
    consumed += sizeof(std::uint32_t) + length;
    try {
      handle_frame(conn, body);
    } catch (const WireError& error) {
      send_error(conn, 0, ErrorCode::kMalformedFrame, error.what());
      conn->draining = true;
      break;
    }
  }
  conn->inbox.erase(conn->inbox.begin(),
                    conn->inbox.begin() + static_cast<std::ptrdiff_t>(consumed));
  return true;
}

void TcpServer::handle_frame(const std::shared_ptr<Connection>& conn,
                             std::span<const std::uint8_t> body) {
  Frame frame = decode_frame(body);
  if (frame.type != FrameType::kRequest) {
    throw WireError("client sent a non-request frame");
  }
  submit_request(conn, std::move(frame.request));
}

void TcpServer::submit_request(const std::shared_ptr<Connection>& conn,
                               RequestFrame&& request) {
  if (request.dimension != server_.dimension()) {
    send_error(conn, request.request_id, ErrorCode::kBadDimension,
               "request dimension " + std::to_string(request.dimension) +
                   " != model dimension " + std::to_string(server_.dimension()));
    return;
  }

  const std::uint64_t request_id = request.request_id;
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  const auto complete = [this, conn, request_id](const core::Prediction& prediction) noexcept {
    try {
      enqueue_bytes(conn, encode_response_frame(request_id, prediction));
      stat_responses_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // Encoding/allocation failure: the client times out on this id, the
      // serving loop keeps running.
    }
    finish_request(*conn);
  };

  try {
    // The Server queues packed words only; a dense v1 frame is packed here
    // (an exact bijection on ±1 components), so both payload kinds stay
    // bit-identical end to end.
    server_.submit(request.representation == Representation::kPacked
                       ? hdc::PackedHypervector::from_words(std::move(request.packed_words),
                                                            request.dimension)
                       : hdc::PackedHypervector::from_bipolar(
                             hdc::Hypervector(std::move(request.dense))),
                   complete);
    stat_requests_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& error) {
    finish_request(*conn);
    const ErrorCode code =
        server_.stopped() ? ErrorCode::kShuttingDown : ErrorCode::kInternal;
    send_error(conn, request_id, code, error.what());
  }
}

void TcpServer::finish_request(Connection& conn) noexcept {
  // Wake before the counters drop: once outstanding_ reads zero, stop() may
  // return and the destructor may close the wake pipe.
  wake();
  conn.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  const std::lock_guard<std::mutex> lock(outstanding_mutex_);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    outstanding_cv_.notify_all();
  }
}

void TcpServer::send_error(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                           ErrorCode code, std::string_view message) {
  stat_errors_.fetch_add(1, std::memory_order_relaxed);
  try {
    enqueue_bytes(conn, encode_error_frame(request_id, code, message));
  } catch (...) {
    conn->dead.store(true, std::memory_order_release);
  }
}

void TcpServer::enqueue_bytes(const std::shared_ptr<Connection>& conn,
                              std::vector<std::uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->outbox_mutex);
    if (conn->dead.load(std::memory_order_acquire)) {
      return;
    }
    conn->outbox.insert(conn->outbox.end(), bytes.begin(), bytes.end());
  }
  wake();
}

bool TcpServer::write_ready(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->outbox_mutex);
  while (conn->outbox_offset < conn->outbox.size()) {
    const ssize_t n = ::send(conn->fd, conn->outbox.data() + conn->outbox_offset,
                             conn->outbox.size() - conn->outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  if (conn->outbox_offset >= conn->outbox.size()) {
    conn->outbox.clear();
    conn->outbox_offset = 0;
  }
  return true;
}

}  // namespace graphhd::serve::net
