#include "kernels/wl_refinement.hpp"

#include <algorithm>
#include <stdexcept>

namespace graphhd::kernels {

std::uint32_t ColorCompressor::compress(const std::string& signature) {
  const auto [it, inserted] = table_.emplace(signature, next_color_);
  if (inserted) ++next_color_;
  return it->second;
}

WlRefiner::WlRefiner(std::size_t iterations) : compressors_(iterations + 1) {}

std::vector<Coloring> WlRefiner::refine(const Graph& graph, std::span<const std::size_t> initial) {
  if (!initial.empty() && initial.size() != graph.num_vertices()) {
    throw std::invalid_argument("WlRefiner::refine: initial color size mismatch");
  }
  const std::size_t n = graph.num_vertices();
  std::vector<Coloring> colorings;
  colorings.reserve(compressors_.size());

  // Depth 0: compress the initial labels through the shared palette so that
  // label ids are globally consistent.
  Coloring current(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t label = initial.empty() ? 0 : initial[v];
    current[v] = compressors_[0].compress(std::to_string(label));
  }
  colorings.push_back(current);

  std::string signature;
  for (std::size_t depth = 1; depth < compressors_.size(); ++depth) {
    Coloring next(n);
    for (graph::VertexId v = 0; v < n; ++v) {
      std::vector<std::uint32_t> neighbor_colors;
      neighbor_colors.reserve(graph.degree(v));
      for (const graph::VertexId u : graph.neighbors(v)) {
        neighbor_colors.push_back(current[u]);
      }
      std::sort(neighbor_colors.begin(), neighbor_colors.end());
      signature.clear();
      signature += std::to_string(current[v]);
      for (const std::uint32_t c : neighbor_colors) {
        signature += ',';
        signature += std::to_string(c);
      }
      next[v] = compressors_[depth].compress(signature);
    }
    current = next;
    colorings.push_back(std::move(next));
  }
  return colorings;
}

}  // namespace graphhd::kernels
