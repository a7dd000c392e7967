#include "serve/client.hpp"

#include <utility>

namespace graphhd::serve {

Client::Client(Server& server) : server_(server), encoder_(server.snapshot()->config()) {}

core::Prediction Client::predict(const graph::Graph& graph) { return submit(graph).get(); }

std::future<core::Prediction> Client::submit(const graph::Graph& graph) {
  // Packed, as SnapshotPredictor::predict encodes; the server converts to
  // its scoring representation exactly.
  return server_.submit(encoder_.encode_packed(graph));
}

void Client::submit(const graph::Graph& graph, Server::Callback callback) {
  server_.submit(encoder_.encode_packed(graph), std::move(callback));
}

}  // namespace graphhd::serve
