/// \file graph.hpp
/// Compressed-sparse-row graph representation.
///
/// GraphHD's datasets contain many small, sparse, undirected, unlabeled
/// graphs (Table I: 14-285 vertices on average, |E|/|V| around 1-2.5), so the
/// representation favors cheap construction and cache-friendly neighbor
/// iteration over mutation.  `GraphBuilder` collects edges; `Graph` is the
/// immutable CSR snapshot consumed by every algorithm in the library.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace graphhd::graph {

using VertexId = std::uint32_t;

/// An undirected edge as a vertex pair.  Stored canonically (u <= v) inside
/// Graph::edges().
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable undirected simple graph in CSR form.
///
/// Invariants (established by GraphBuilder / from_edges, checked in debug):
///  - adjacency lists are sorted ascending and contain no duplicates;
///  - no self-loops;
///  - the CSR is symmetric: v in adj(u) iff u in adj(v);
///  - edges() lists each undirected edge exactly once with u <= v, sorted.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph with `num_vertices` vertices from an undirected edge
  /// list.  Duplicate edges and self-loops are rejected with
  /// std::invalid_argument (the TUDataset loader deduplicates upstream).
  [[nodiscard]] static Graph from_edges(std::size_t num_vertices, std::span<const Edge> edges);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Neighbors of `v`, sorted ascending.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  /// Degree of `v`.
  [[nodiscard]] std::size_t degree(VertexId v) const;

  /// All undirected edges, each once, canonical (u <= v), sorted.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// True if the undirected edge (u, v) exists (binary search, O(log deg)).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// 2|E| / (|V| (|V|-1)) for |V| >= 2, else 0 — the "fraction of connected
  /// vertices" statistic the paper reports (~0.05 across the benchmarks).
  [[nodiscard]] double density() const noexcept;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<std::size_t> offsets_;   // size |V|+1
  std::vector<VertexId> adjacency_;    // size 2|E|
  std::vector<Edge> edges_;            // size |E|
};

/// Incremental builder for undirected simple graphs.  Tolerates duplicate
/// edge insertions and self-loops by ignoring them (counted for diagnostics),
/// which is what a robust dataset parser needs.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices = 0);

  /// Grows the vertex count to at least `count`.
  void ensure_vertices(std::size_t count);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] std::size_t num_edges_added() const noexcept { return edges_.size(); }
  [[nodiscard]] std::size_t duplicates_ignored() const noexcept { return duplicates_; }
  [[nodiscard]] std::size_t self_loops_ignored() const noexcept { return self_loops_; }

  /// Adds undirected edge (u, v); grows the vertex set if needed.  Self-loops
  /// and repeats are ignored.  Returns true when the edge was new.
  bool add_edge(VertexId u, VertexId v);

  /// Finalizes into an immutable Graph.  The builder may be reused afterwards
  /// (it retains its state).
  [[nodiscard]] Graph build() const;

 private:
  std::size_t num_vertices_ = 0;
  std::vector<Edge> edges_;  // canonical, deduplicated via the set below
  std::vector<std::uint64_t> edge_keys_;  // sorted keys for dedup lookups
  std::size_t duplicates_ = 0;
  std::size_t self_loops_ = 0;
};

}  // namespace graphhd::graph
