/// \file algorithms.hpp
/// Connectivity, cycle detection and vertex relabeling.  The synthetic
/// dataset generator (data/synthetic.cpp) shuffles vertex ids with
/// relabel(); the generator property tests check their output with the
/// connectivity and cycle predicates.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace graphhd::graph {

/// Connected components: returns per-vertex component ids in [0, count),
/// numbered in order of first discovery by vertex id.
struct Components {
  std::vector<std::size_t> component_of;
  std::size_t count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);

/// True if the graph is connected (vacuously true for |V| <= 1).
[[nodiscard]] bool is_connected(const Graph& g);

/// True if the graph contains at least one cycle.
[[nodiscard]] bool has_cycle(const Graph& g);

/// Relabels the graph by the permutation `mapping` (new_id = mapping[old_id])
/// producing an isomorphic copy.  `mapping` must be a permutation of
/// [0, |V|).
[[nodiscard]] Graph relabel(const Graph& g, std::span<const VertexId> mapping);

}  // namespace graphhd::graph
