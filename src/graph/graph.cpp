#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace graphhd::graph {

namespace {

[[nodiscard]] constexpr std::uint64_t edge_key(VertexId u, VertexId v) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

/// Fibonacci hashing: the top bits of key * 2^64/phi index the key table.
[[nodiscard]] constexpr std::size_t table_slot(std::uint64_t key, unsigned shift) noexcept {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// Sorts one adjacency run: insertion sort for the short runs sparse graphs
/// have, std::sort for hubs.
template <typename It>
void sort_run(It first, It last) {
  if (last - first > 24) {
    std::sort(first, last);
    return;
  }
  for (It it = first; it != last; ++it) {
    const auto value = *it;
    It hole = it;
    for (; hole != first && *(hole - 1) > value; --hole) *hole = *(hole - 1);
    *hole = value;
  }
}

}  // namespace

Graph Graph::from_edges(std::size_t num_vertices, std::span<const Edge> edges) {
  Graph g;
  g.offsets_.assign(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::invalid_argument("Graph::from_edges: vertex id out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph::from_edges: self-loop");
    }
    ++g.offsets_[e.u];
    ++g.offsets_[e.v];
  }

  // Counting sort into CSR.  Inclusive prefix sums put each run's end in
  // offsets_[v]; filling the runs from their ends leaves their starts there.
  std::size_t total = 0;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    total += g.offsets_[v];
    g.offsets_[v] = total;
  }
  g.offsets_[num_vertices] = total;
  g.adjacency_.resize(total);
  for (const Edge& e : edges) {
    g.adjacency_[--g.offsets_[e.u]] = e.v;
    g.adjacency_[--g.offsets_[e.v]] = e.u;
  }

  // Sorted runs give the canonical edge list in order: (u, v) for u < v.
  g.edges_.reserve(edges.size());
  for (std::size_t u = 0; u < num_vertices; ++u) {
    const auto first = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]);
    const auto last = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u + 1]);
    sort_run(first, last);
    for (auto it = first; it != last; ++it) {
      if (it != first && *it == *(it - 1)) {
        throw std::invalid_argument("Graph::from_edges: duplicate edge");
      }
      if (*it > u) g.edges_.push_back(Edge{static_cast<VertexId>(u), *it});
    }
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

void GraphBuilder::rehash(std::size_t size) {
  key_table_.assign(size, 0);
  key_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const Edge& e : edges_) {
    std::size_t slot = table_slot(edge_key(e.u, e.v), key_shift_);
    while (key_table_[slot] != 0) slot = (slot + 1) & (size - 1);
    key_table_[slot] = edge_key(e.u, e.v);
  }
}

void GraphBuilder::reserve_edges(std::size_t count) {
  edges_.reserve(count);
  const std::size_t size = std::bit_ceil(std::max<std::size_t>(32, 2 * count));
  if (size > key_table_.size()) rehash(size);
}

bool GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u == v) {
    ++self_loops_;
    return false;
  }
  ensure_vertices(static_cast<std::size_t>(std::max(u, v)) + 1);
  if (2 * (edges_.size() + 1) > key_table_.size()) {
    rehash(key_table_.empty() ? 32 : 2 * key_table_.size());
  }
  const std::uint64_t key = edge_key(u, v);
  const std::size_t mask = key_table_.size() - 1;
  for (std::size_t slot = table_slot(key, key_shift_);; slot = (slot + 1) & mask) {
    if (key_table_[slot] == key) {
      ++duplicates_;
      return false;
    }
    if (key_table_[slot] == 0) {
      key_table_[slot] = key;
      break;
    }
  }
  edges_.push_back(Edge{std::min(u, v), std::max(u, v)});
  return true;
}

Graph GraphBuilder::build() const { return Graph::from_edges(num_vertices_, edges_); }

}  // namespace graphhd::graph
