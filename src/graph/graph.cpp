#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace graphhd::graph {

namespace {

[[nodiscard]] constexpr std::uint64_t edge_key(VertexId u, VertexId v) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

}  // namespace

Graph Graph::from_edges(std::size_t num_vertices, std::span<const Edge> edges) {
  Graph g;
  g.offsets_.assign(num_vertices + 1, 0);
  g.edges_.reserve(edges.size());

  for (const Edge& e : edges) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::invalid_argument("Graph::from_edges: vertex id out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph::from_edges: self-loop");
    }
    g.edges_.push_back(Edge{std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  std::sort(g.edges_.begin(), g.edges_.end());
  if (std::adjacent_find(g.edges_.begin(), g.edges_.end()) != g.edges_.end()) {
    throw std::invalid_argument("Graph::from_edges: duplicate edge");
  }

  // Counting sort into CSR.
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    std::sort(g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]),
              g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]));
  }
  return g;
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  if (v >= num_vertices()) {
    throw std::out_of_range("Graph::neighbors: vertex out of range");
  }
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Graph::degree(VertexId v) const {
  if (v >= num_vertices()) {
    throw std::out_of_range("Graph::degree: vertex out of range");
  }
  return offsets_[v + 1] - offsets_[v];
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices() || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::density() const noexcept {
  const auto n = static_cast<double>(num_vertices());
  if (n < 2.0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / (n * (n - 1.0));
}

GraphBuilder::GraphBuilder(std::size_t num_vertices) : num_vertices_(num_vertices) {}

void GraphBuilder::ensure_vertices(std::size_t count) {
  num_vertices_ = std::max(num_vertices_, count);
}

bool GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u == v) {
    ++self_loops_;
    return false;
  }
  ensure_vertices(static_cast<std::size_t>(std::max(u, v)) + 1);
  const std::uint64_t key = edge_key(u, v);
  const auto it = std::lower_bound(edge_keys_.begin(), edge_keys_.end(), key);
  if (it != edge_keys_.end() && *it == key) {
    ++duplicates_;
    return false;
  }
  edge_keys_.insert(it, key);
  edges_.push_back(Edge{std::min(u, v), std::max(u, v)});
  return true;
}

Graph GraphBuilder::build() const { return Graph::from_edges(num_vertices_, edges_); }

}  // namespace graphhd::graph
