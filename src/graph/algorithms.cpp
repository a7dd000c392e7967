#include "graph/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace graphhd::graph {

Components connected_components(const Graph& g) {
  const std::size_t n = g.num_vertices();
  Components result;
  result.component_of.assign(n, std::numeric_limits<std::size_t>::max());
  std::queue<VertexId> frontier;
  for (VertexId start = 0; start < n; ++start) {
    if (result.component_of[start] != std::numeric_limits<std::size_t>::max()) continue;
    const std::size_t id = result.count++;
    result.component_of[start] = id;
    frontier.push(start);
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      for (const VertexId u : g.neighbors(v)) {
        if (result.component_of[u] == std::numeric_limits<std::size_t>::max()) {
          result.component_of[u] = id;
          frontier.push(u);
        }
      }
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

bool has_cycle(const Graph& g) {
  // A forest has exactly |V| - #components edges; any extra edge closes a
  // cycle.
  const auto comps = connected_components(g);
  return g.num_edges() > g.num_vertices() - comps.count;
}

Graph relabel(const Graph& g, std::span<const VertexId> mapping) {
  if (mapping.size() != g.num_vertices()) {
    throw std::invalid_argument("relabel: mapping size mismatch");
  }
  std::vector<bool> seen(mapping.size(), false);
  for (const VertexId target : mapping) {
    if (target >= mapping.size() || seen[target]) {
      throw std::invalid_argument("relabel: mapping is not a permutation");
    }
    seen[target] = true;
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    const VertexId a = mapping[e.u], b = mapping[e.v];
    edges.push_back({std::min(a, b), std::max(a, b)});
  }
  return Graph::from_edges(g.num_vertices(), edges);
}

}  // namespace graphhd::graph
