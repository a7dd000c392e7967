/// Tests for the TCP serving front end (src/serve/net/): wire-protocol
/// encode/decode round trips, end-to-end bit-identity of remote predictions
/// against InferenceSnapshot::predict_encoded_batch (sync, pipelined
/// out-of-order, multi-connection), the client failure taxonomy (refused,
/// handshake mismatch, mid-stream EOF, oversized frame, remote errors), and
/// a seeded malformed-byte fuzz pass (the test_fuzz_loaders mutation idiom
/// pointed at a live socket): no mutation of the handshake-plus-request byte
/// stream may crash or wedge the server, and a fresh connection must still
/// be served bit-identically after every case.

#include "serve/net/tcp_server.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/snapshot.hpp"
#include "hdc/random.hpp"
#include "serve/net/tcp_client.hpp"
#include "serve/net/wire.hpp"
#include "serve/server.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd::serve::net;
using graphhd::core::GraphHdConfig;
using graphhd::core::Prediction;
using graphhd::serve::Server;
using graphhd::serve::ServerConfig;
namespace hdc = graphhd::hdc;
namespace proptest = graphhd::proptest;

constexpr std::size_t kDim = 256;
constexpr std::size_t kClasses = 4;

/// A model without a training pass (stress_serve's idiom): seeded random
/// odd counters so the majority threshold is tie-free.  Quantized models
/// carry the packed tag; `quantized = false` gives a counter-scoring model.
graphhd::core::GraphHdModel make_model(bool quantized = true) {
  GraphHdConfig config;
  config.dimension = kDim;
  config.seed = 0x7e57ULL;
  config.quantized_model = quantized;
  config.backend = quantized ? graphhd::core::Backend::kPackedBinary
                             : graphhd::core::Backend::kDenseBipolar;
  graphhd::core::GraphHdModel model(config, kClasses);

  hdc::Rng rng(0x6e7);
  std::vector<hdc::BundleAccumulator> accumulators;
  for (std::size_t slot = 0; slot < kClasses; ++slot) {
    std::vector<std::int32_t> counts(kDim);
    for (auto& c : counts) {
      c = static_cast<std::int32_t>(rng.next_below(19)) - 9;
      if ((c & 1) == 0) c += c >= 0 ? 1 : -1;
    }
    accumulators.push_back(
        hdc::BundleAccumulator::from_raw(std::move(counts), 9, /*parity=*/true));
  }
  model.restore_state(std::move(accumulators), std::vector<std::size_t>(kClasses, 9),
                      std::vector<std::size_t>(kClasses, 0), /*fitted=*/true);
  return model;
}

void expect_bit_identical(const Prediction& got, const Prediction& want, const char* what) {
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.score), std::bit_cast<std::uint64_t>(want.score))
      << what;
  ASSERT_EQ(got.class_scores.size(), want.class_scores.size()) << what;
  for (std::size_t i = 0; i < got.class_scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.class_scores[i]),
              std::bit_cast<std::uint64_t>(want.class_scores[i]))
        << what << " class " << i;
  }
}

/// A raw loopback socket for speaking deliberately broken protocol.
struct RawConn {
  int fd = -1;

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send(std::span<const std::uint8_t> bytes) const {
    std::size_t sent = 0;
    while (fd >= 0 && sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads whatever the server sends until EOF or `timeout_ms` of silence.
  [[nodiscard]] std::vector<std::uint8_t> drain(int timeout_ms = 2000) const {
    std::vector<std::uint8_t> out;
    std::uint8_t buffer[4096];
    while (fd >= 0) {
      pollfd pfd{.fd = fd, .events = POLLIN, .revents = 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) break;  // silence or error: give up.
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;  // EOF (server closed) or error.
      out.insert(out.end(), buffer, buffer + n);
    }
    return out;
  }
};

GraphHdConfig sample_config() {
  GraphHdConfig config;
  config.dimension = 8192;
  config.pagerank_iterations = 17;
  config.pagerank_damping = 0.91;
  config.quantized_model = true;
  config.backend = graphhd::core::Backend::kPackedBinary;
  config.retrain_epochs = 3;
  config.seed = 0xfeedbeefULL;
  return config;
}

// ---------------------------------------------------------------------------
// Wire round trips.

TEST(Wire, ConfigEncodesCanonicallyAndRoundTrips) {
  const GraphHdConfig config = sample_config();
  const auto bytes = encode_config(config);
  EXPECT_EQ(bytes.size(), 72u);
  const GraphHdConfig back = decode_config(bytes);
  EXPECT_EQ(encode_config(back), bytes);  // canonical: re-encoding is identity.
  EXPECT_EQ(config_hash(config), config_hash(back));
  EXPECT_NE(config_hash(config), config_hash(GraphHdConfig{}));

  // Trailing bytes from a future version are tolerated; truncation is not.
  auto extended = bytes;
  extended.push_back(0xab);
  EXPECT_EQ(encode_config(decode_config(extended)), bytes);
  EXPECT_THROW((void)decode_config(std::span(bytes).first(71)), WireError);
}

TEST(Wire, ConfigHashOfTheDefaultConfigIsPinned) {
  // A changed config encoding or hash would turn every deployed client's
  // expect_config_hash into a handshake mismatch.
  EXPECT_EQ(config_hash(GraphHdConfig{}), 0x12b300ac09be9c8dULL);
}

TEST(Wire, RequestFrameRoundTripsBothRepresentations) {
  hdc::Rng rng(0x11);
  const auto packed = hdc::PackedHypervector::random(300, rng);  // non-multiple of 64
  const auto packed_frame = encode_request_frame(77, packed);
  const Frame decoded = decode_frame(std::span(packed_frame).subspan(4));
  ASSERT_EQ(decoded.type, FrameType::kRequest);
  EXPECT_EQ(decoded.request.request_id, 77u);
  EXPECT_EQ(decoded.request.representation, Representation::kPacked);
  EXPECT_EQ(decoded.request.dimension, 300u);
  EXPECT_TRUE(std::equal(decoded.request.packed_words.begin(),
                         decoded.request.packed_words.end(), packed.words().begin(),
                         packed.words().end()));

  const auto dense = packed.to_bipolar();
  const auto dense_frame = encode_request_frame(78, dense);
  const Frame dense_decoded = decode_frame(std::span(dense_frame).subspan(4));
  ASSERT_EQ(dense_decoded.type, FrameType::kRequest);
  EXPECT_EQ(dense_decoded.request.representation, Representation::kDense);
  EXPECT_EQ(dense_decoded.request.dense.size(), 300u);
}

TEST(Wire, ResponseFrameCarriesExactScoreBits) {
  Prediction prediction;
  prediction.label = 3;
  prediction.score = 0.1;  // not exactly representable — bit pattern must survive.
  prediction.class_scores = {-0.0, 0.1 + 0.2, 5e-324, 1.0};
  const auto frame = encode_response_frame(9, prediction);
  const Frame decoded = decode_frame(std::span(frame).subspan(4));
  ASSERT_EQ(decoded.type, FrameType::kResponse);
  EXPECT_EQ(decoded.response.request_id, 9u);
  expect_bit_identical(decoded.response.prediction, prediction, "response roundtrip");
  EXPECT_TRUE(std::signbit(decoded.response.prediction.class_scores[0]));  // -0.0 kept.
}

TEST(Wire, ErrorFrameRoundTrips) {
  const auto frame = encode_error_frame(4, ErrorCode::kBadDimension, "dimension 7 != 256");
  const Frame decoded = decode_frame(std::span(frame).subspan(4));
  ASSERT_EQ(decoded.type, FrameType::kError);
  EXPECT_EQ(decoded.error.request_id, 4u);
  EXPECT_EQ(decoded.error.code, ErrorCode::kBadDimension);
  EXPECT_EQ(decoded.error.message, "dimension 7 != 256");
}

TEST(Wire, DecodeRejectsMalformedBodies) {
  hdc::Rng rng(0x22);
  const auto packed = hdc::PackedHypervector::random(128, rng);
  const auto frame = encode_request_frame(1, packed);
  const auto body = std::span(frame).subspan(4);

  EXPECT_THROW((void)decode_frame(body.first(body.size() - 1)), WireError);  // truncated
  EXPECT_THROW((void)decode_frame(body.first(3)), WireError);                // no header
  EXPECT_THROW((void)decode_frame({}), WireError);                           // empty

  auto bad_type = std::vector<std::uint8_t>(body.begin(), body.end());
  bad_type[0] = 9;  // unknown frame type tag
  EXPECT_THROW((void)decode_frame(bad_type), WireError);

  auto bad_repr = std::vector<std::uint8_t>(body.begin(), body.end());
  bad_repr[12] = 7;  // unknown representation tag
  EXPECT_THROW((void)decode_frame(bad_repr), WireError);

  auto short_payload = std::vector<std::uint8_t>(body.begin(), body.end());
  short_payload.pop_back();  // payload length no longer matches dimension
  EXPECT_THROW((void)decode_frame(short_payload), WireError);

  // Dense payload components must be exactly +-1.
  const auto dense_frame = encode_request_frame(2, packed.to_bipolar());
  auto bad_dense = std::vector<std::uint8_t>(dense_frame.begin() + 4, dense_frame.end());
  bad_dense.back() = 2;
  EXPECT_THROW((void)decode_frame(bad_dense), WireError);
}

TEST(Wire, ClientHelloValidates) {
  auto hello = encode_client_hello();
  EXPECT_EQ(hello.size(), kClientHelloBytes);
  check_client_hello(hello);  // must not throw
  auto bad_magic = hello;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(check_client_hello(bad_magic), WireError);
  auto bad_version = hello;
  bad_version[4] = 0xee;
  EXPECT_THROW(check_client_hello(bad_version), WireError);
  EXPECT_THROW(check_client_hello(std::span(hello).first(7)), WireError);
}

TEST(Wire, ServerHelloRoundTripsConfig) {
  const GraphHdConfig config = sample_config();
  const auto hello = encode_server_hello(config, 12);
  ASSERT_GT(hello.size(), kServerHelloFixedBytes);
  const auto fixed = std::span(hello).first(kServerHelloFixedBytes);
  const std::uint64_t config_len = check_server_hello_fixed(fixed);
  EXPECT_EQ(config_len, hello.size() - kServerHelloFixedBytes);
  const ServerHello decoded =
      decode_server_hello(fixed, std::span(hello).subspan(kServerHelloFixedBytes));
  EXPECT_EQ(decoded.representation, Representation::kPacked);
  EXPECT_EQ(decoded.num_classes, 12u);
  EXPECT_EQ(decoded.config_hash, config_hash(config));
  EXPECT_EQ(encode_config(decoded.config), encode_config(config));

  // A flipped config byte breaks the embedded hash check.
  auto corrupted = hello;
  corrupted[kServerHelloFixedBytes] ^= 0x01;
  EXPECT_THROW((void)decode_server_hello(std::span(corrupted).first(kServerHelloFixedBytes),
                                         std::span(corrupted).subspan(kServerHelloFixedBytes)),
               WireError);
}

// ---------------------------------------------------------------------------
// End-to-end over loopback.

class NetEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<graphhd::core::GraphHdModel>(make_model());
    snapshot_ = model_->snapshot();
    server_ = std::make_unique<Server>(snapshot_, ServerConfig{.max_batch = 16});
    tcp_ = std::make_unique<TcpServer>(*server_);

    hdc::Rng rng(0x9e3);
    for (std::size_t q = 0; q < 16; ++q) {
      queries_.push_back(hdc::PackedHypervector::random(kDim, rng));
    }
    expected_ = snapshot_->predict_encoded_batch(queries_);
  }

  std::unique_ptr<graphhd::core::GraphHdModel> model_;
  std::shared_ptr<const graphhd::core::InferenceSnapshot> snapshot_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<TcpServer> tcp_;
  std::vector<hdc::PackedHypervector> queries_;
  std::vector<Prediction> expected_;
};

TEST_F(NetEndToEnd, HandshakeCarriesModelIdentity) {
  TcpClient client("127.0.0.1", tcp_->port());
  EXPECT_EQ(client.num_classes(), kClasses);
  EXPECT_EQ(client.config_hash(), config_hash(snapshot_->config()));
  EXPECT_EQ(encode_config(client.config()), encode_config(snapshot_->config()));
  EXPECT_TRUE(client.packed_mode());
}

TEST_F(NetEndToEnd, SyncPredictionsBitIdenticalBothRepresentations) {
  TcpClient client("127.0.0.1", tcp_->port());
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    expect_bit_identical(client.predict(queries_[q]), expected_[q], "packed sync");
    // The server converts a dense submission of the same query exactly.
    expect_bit_identical(client.predict(queries_[q].to_bipolar()), expected_[q],
                         "dense sync");
  }
}

TEST(NetCounterScoring, DenseAndPackedFramesMatchPredictEncoded) {
  // A counter-scoring model is served over the same packed queue: the hello
  // still asks for packed frames, and a dense frame is packed by the
  // TcpServer before it is queued.
  const auto model = make_model(/*quantized=*/false);
  const auto snapshot = model.snapshot();
  Server server(snapshot, ServerConfig{.max_batch = 16});
  TcpServer tcp(server);
  TcpClient client("127.0.0.1", tcp.port());
  EXPECT_TRUE(client.packed_mode());
  EXPECT_FALSE(client.config().quantized_model);

  hdc::Rng rng(0xc0de);
  std::vector<hdc::PackedHypervector> queries;
  for (std::size_t q = 0; q < 16; ++q) queries.push_back(hdc::PackedHypervector::random(kDim, rng));
  std::vector<std::uint64_t> ids;
  for (const auto& query : queries) {
    ids.push_back(client.submit(query));
    ids.push_back(client.submit(query.to_bipolar()));
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Prediction want = snapshot->predict_encoded(queries[q]);
    expect_bit_identical(client.wait(ids[2 * q]), want, "packed frame, counter scoring");
    expect_bit_identical(client.wait(ids[2 * q + 1]), want, "dense frame, counter scoring");
  }
}

TEST_F(NetEndToEnd, PipelinedResponsesCollectOutOfOrder) {
  TcpClient client("127.0.0.1", tcp_->port());
  std::vector<std::uint64_t> ids;
  for (const auto& query : queries_) {
    ids.push_back(client.submit(query));
  }
  for (std::size_t i = ids.size(); i-- > 0;) {  // reverse order forces parking.
    expect_bit_identical(client.wait(ids[i]), expected_[i], "pipelined");
  }
}

TEST_F(NetEndToEnd, PredictBatchMatchesDirectBatch) {
  TcpClient client("127.0.0.1", tcp_->port());
  const auto got = client.predict_batch(queries_);
  ASSERT_EQ(got.size(), expected_.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    expect_bit_identical(got[q], expected_[q], "predict_batch");
  }
}

TEST_F(NetEndToEnd, ConcurrentConnectionsAllBitIdentical) {
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client("127.0.0.1", tcp_->port());
      for (std::size_t i = 0; i < 32; ++i) {
        const std::size_t q = (t * 7 + i) % queries_.size();
        const Prediction got = client.predict(queries_[q]);
        if (got.label != expected_[q].label ||
            std::bit_cast<std::uint64_t>(got.score) !=
                std::bit_cast<std::uint64_t>(expected_[q].score) ||
            got.class_scores != expected_[q].class_scores) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(tcp_->stats().connections, kThreads);
}

TEST_F(NetEndToEnd, WrongDimensionErrorsButConnectionSurvives) {
  TcpClient client("127.0.0.1", tcp_->port());
  hdc::Rng rng(0x33);
  const auto wrong_size = hdc::PackedHypervector::random(kDim / 2, rng);
  try {
    (void)client.predict(wrong_size);
    FAIL() << "expected NetError";
  } catch (const NetError& error) {
    EXPECT_EQ(error.kind(), NetErrorKind::kRemoteError);
    EXPECT_NE(std::string(error.what()).find("dimension"), std::string::npos)
        << error.what();
  }
  // A request-scoped error must not poison the connection.
  expect_bit_identical(client.predict(queries_[0]), expected_[0], "after bad dimension");
}

TEST_F(NetEndToEnd, ExpectedConfigHashMismatchFailsHandshake) {
  TcpClientConfig config;
  config.expect_config_hash = config_hash(snapshot_->config()) ^ 1;
  try {
    TcpClient client("127.0.0.1", tcp_->port(), config);
    FAIL() << "expected NetError";
  } catch (const NetError& error) {
    EXPECT_EQ(error.kind(), NetErrorKind::kHandshakeMismatch);
  }
  // The matching hash must still connect.
  config.expect_config_hash = config_hash(snapshot_->config());
  TcpClient ok("127.0.0.1", tcp_->port(), config);
  expect_bit_identical(ok.predict(queries_[0]), expected_[0], "pinned hash");
}

TEST_F(NetEndToEnd, OversizedLengthPrefixClosesConnectionNotServer) {
  RawConn raw(tcp_->port());
  ASSERT_GE(raw.fd, 0);
  raw.send(encode_client_hello());

  std::vector<std::uint8_t> poison(8);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(poison.data(), &huge, sizeof huge);
  raw.send(poison);
  const auto reply = raw.drain();  // ServerHello, maybe an error frame, then EOF.
  EXPECT_GE(reply.size(), kServerHelloFixedBytes);

  // The server is unharmed: a well-behaved client still gets exact answers.
  TcpClient client("127.0.0.1", tcp_->port());
  expect_bit_identical(client.predict(queries_[0]), expected_[0], "after oversized");
}

TEST_F(NetEndToEnd, GarbageHandshakeGetsErrorFrameAndClose) {
  RawConn raw(tcp_->port());
  ASSERT_GE(raw.fd, 0);
  std::vector<std::uint8_t> garbage(kClientHelloBytes + 16, 0x5a);
  raw.send(garbage);
  (void)raw.drain();  // best-effort error frame, then EOF — must not hang.
  TcpClient client("127.0.0.1", tcp_->port());
  expect_bit_identical(client.predict(queries_[0]), expected_[0], "after garbage hello");
}

TEST(NetErrors, ConnectionRefused) {
  // Bind an ephemeral port, close it, then connect to the now-dead port.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  try {
    TcpClient client("127.0.0.1", dead_port, TcpClientConfig{.connect_timeout_ms = 2000});
    FAIL() << "expected NetError";
  } catch (const NetError& error) {
    EXPECT_EQ(error.kind(), NetErrorKind::kRefused) << error.what();
  }
}

/// Runs a TcpClient handshake against a one-shot loopback server that reads
/// the ClientHello, sends `reply` and closes.  `error` receives the NetError
/// the handshake raised, and stays empty when the client connected.
void handshake_against(const std::vector<std::uint8_t>& reply, std::optional<NetError>& error) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread acceptor([listener, &reply] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn >= 0) {
      // Consume the ClientHello before closing: an unread receive buffer
      // would turn the close into an RST (ECONNRESET) instead of a clean
      // FIN, and an empty reply tests the mid-stream-EOF path specifically.
      std::uint8_t hello[kClientHelloBytes];
      std::size_t got = 0;
      while (got < sizeof hello) {
        const ssize_t n = ::recv(conn, hello + got, sizeof hello - got, 0);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      std::size_t sent = 0;
      while (sent < reply.size()) {
        const ssize_t n = ::send(conn, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      ::close(conn);
    }
  });

  try {
    TcpClient client("127.0.0.1", port, TcpClientConfig{.read_timeout_ms = 2000});
  } catch (const NetError& caught) {
    error = caught;
  }
  acceptor.join();
  ::close(listener);
}

TEST(NetErrors, MidStreamEofDuringHandshake) {
  // A server that sends nothing and closes: the client's ServerHello read
  // hits EOF mid-stream.
  std::optional<NetError> error;
  handshake_against({}, error);
  ASSERT_TRUE(error) << "expected NetError";
  EXPECT_EQ(error->kind(), NetErrorKind::kClosed) << error->what();
  EXPECT_NE(std::string(error->what()).find("EOF"), std::string::npos) << error->what();
}

TEST(NetErrors, HelloConfigFailingTheArtifactChecksFailsHandshake) {
  // A hello hashed consistently over a config that load_model would reject:
  // the client refuses it before building anything from it.
  GraphHdConfig invalid = sample_config();
  invalid.dimension = 0;
  std::optional<NetError> error;
  handshake_against(encode_server_hello(invalid, kClasses), error);
  ASSERT_TRUE(error) << "expected NetError";
  EXPECT_EQ(error->kind(), NetErrorKind::kHandshakeMismatch) << error->what();
}

TEST_F(NetEndToEnd, ShutdownDrainsInFlightRequests) {
  TcpClient client("127.0.0.1", tcp_->port());
  std::vector<std::uint64_t> ids;
  for (const auto& query : queries_) {
    ids.push_back(client.submit(query));
  }
  tcp_->stop();  // must flush every pipelined response before closing.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_bit_identical(client.wait(ids[i]), expected_[i], "drained on stop");
  }
}

// ---------------------------------------------------------------------------
// Malformed-byte fuzz: no mutation of the session byte stream may take the
// server down or stop it serving well-formed connections.

struct NetMutation {
  enum Kind { kTruncate, kFlipByte, kInsertGarbage } kind = kTruncate;
  std::size_t offset = 0;       ///< clamped to the session blob later.
  unsigned char byte = 0;
};

std::ostream& operator<<(std::ostream& out, const NetMutation& m) {
  const char* kind = m.kind == NetMutation::kTruncate    ? "truncate"
                     : m.kind == NetMutation::kFlipByte  ? "flip"
                                                         : "garbage";
  return out << kind << " at offset " << m.offset << " (byte "
             << static_cast<int>(m.byte) << ")";
}

[[nodiscard]] NetMutation random_mutation(hdc::Rng& rng) {
  NetMutation m;
  m.kind = static_cast<NetMutation::Kind>(rng.next_below(3));
  m.offset = static_cast<std::size_t>(rng.next_below(1 << 12));
  m.byte = static_cast<unsigned char>(rng.next_below(256));
  return m;
}

[[nodiscard]] std::vector<NetMutation> shrink_mutation(const NetMutation& m) {
  std::vector<NetMutation> out;
  if (m.offset > 0) {
    NetMutation halved = m;
    halved.offset /= 2;
    out.push_back(halved);
  }
  if (m.kind != NetMutation::kTruncate) {
    NetMutation simpler = m;
    simpler.kind = NetMutation::kTruncate;
    out.push_back(simpler);
  }
  return out;
}

[[nodiscard]] std::vector<std::uint8_t> apply_mutation(std::vector<std::uint8_t> blob,
                                                       const NetMutation& m) {
  const std::size_t offset = blob.empty() ? 0 : m.offset % blob.size();
  switch (m.kind) {
    case NetMutation::kTruncate:
      blob.resize(offset);
      break;
    case NetMutation::kFlipByte:
      if (!blob.empty()) blob[offset] ^= (m.byte | 1);  // |1 so it always changes.
      break;
    case NetMutation::kInsertGarbage:
      blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(offset),
                  {m.byte, static_cast<std::uint8_t>(~m.byte), 0xff, 0x00});
      break;
  }
  return blob;
}

TEST_F(NetEndToEnd, FuzzedSessionsNeverKillTheServer) {
  // The pristine session: a valid ClientHello followed by one valid request.
  std::vector<std::uint8_t> pristine = encode_client_hello();
  const auto request = encode_request_frame(1, queries_[0]);
  pristine.insert(pristine.end(), request.begin(), request.end());

  proptest::check<NetMutation>(
      "mutated session bytes never crash or wedge the TCP server",
      [&](hdc::Rng& rng, std::size_t) { return random_mutation(rng); },
      [&](const NetMutation& m) { return shrink_mutation(m); },
      [&](const NetMutation& m, std::ostream& diag) {
        diag << m;
        {
          RawConn raw(tcp_->port());
          if (raw.fd < 0) return false;  // server must still accept.
          raw.send(apply_mutation(pristine, m));
          // Response, error frame, or silence (truncated frame: the server is
          // rightly waiting for more bytes) — a short drain keeps 48+ cases
          // affordable; the liveness gate is the follow-up connection below.
          (void)raw.drain(/*timeout_ms=*/200);
        }
        // The gate: a fresh well-formed connection is still served exactly.
        try {
          TcpClient client("127.0.0.1", tcp_->port(),
                           TcpClientConfig{.read_timeout_ms = 10000});
          const Prediction got = client.predict(queries_[1]);
          return got.label == expected_[1].label &&
                 std::bit_cast<std::uint64_t>(got.score) ==
                     std::bit_cast<std::uint64_t>(expected_[1].score) &&
                 got.class_scores == expected_[1].class_scores;
        } catch (const NetError& error) {
          diag << " — follow-up connection failed: " << error.what();
          return false;
        }
      },
      proptest::Config{.cases = 48});
}

}  // namespace
