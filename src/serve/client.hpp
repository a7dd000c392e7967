/// \file client.hpp
/// Synchronous graph-in/prediction-out facade over serve::Server.
///
/// The server deals only in *encoded* queries (that is what batches
/// coalesce); encoding a graph needs a GraphHdEncoder, whose lazily grown
/// basis caches make it cheap to reuse but unsafe to share across threads.
/// A Client therefore owns one encoder, built from the server's snapshot
/// config — the standard arrangement is one Client per client thread.
/// Encoders are seed-deterministic, so every Client encodes a graph to the
/// same bits the trainer would, and server responses stay bit-identical to
/// SnapshotPredictor::predict / predict_batch on the same graphs.
///
/// A Client stays valid across Server::swap — the swap contract
/// (core::encoder_compatible) guarantees every future snapshot encodes
/// graphs identically.

#pragma once

#include <future>

#include "core/encoder.hpp"
#include "graph/graph.hpp"
#include "serve/server.hpp"

namespace graphhd::serve {

/// Per-thread serving front end: encodes graphs and submits them.
/// Not thread-safe (the encoder mutates its caches); create one per thread.
class Client {
 public:
  /// Builds the encoder from `server`'s current snapshot config.  The
  /// server must outlive the client.
  explicit Client(Server& server);

  /// Encode + submit + wait: the synchronous single-query round trip.
  [[nodiscard]] core::Prediction predict(const graph::Graph& graph);

  /// Encode + submit, returning the future (pipelined submission: a client
  /// can keep several requests in flight and let the server coalesce them).
  [[nodiscard]] std::future<core::Prediction> submit(const graph::Graph& graph);

  /// Encode + submit with a completion callback (see Server::Callback —
  /// runs on a worker thread, must not throw).
  void submit(const graph::Graph& graph, Server::Callback callback);

 private:
  Server& server_;
  core::GraphHdEncoder encoder_;
};

}  // namespace graphhd::serve
