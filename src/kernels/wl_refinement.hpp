/// \file wl_refinement.hpp
/// Weisfeiler-Leman (1-WL) color refinement with a dataset-global palette.
///
/// Both kernel baselines in the paper build on 1-WL: at each iteration a
/// vertex's color is replaced by an injective compression of (own color,
/// sorted multiset of neighbor colors).  For kernels the compression palette
/// must be shared across graphs — matching colors in different graphs must
/// mean identical subtrees — and must be extensible at test time: unseen
/// signatures receive fresh colors that simply never match the training
/// side, contributing zero to the kernel (exactly the semantics of the
/// original WL kernel paper, Shervashidze et al., JMLR 2011).

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace graphhd::kernels {

using graph::Graph;

/// Per-graph coloring at one refinement depth.
using Coloring = std::vector<std::uint32_t>;

/// Injective signature -> color compression shared across graphs and between
/// fit and transform.  One instance per refinement iteration.
class ColorCompressor {
 public:
  /// Returns the color for `signature`, allocating a fresh one when the
  /// signature is new and `frozen()` is false.  When frozen, unseen
  /// signatures map to fresh colors too (they must not collide with known
  /// colors), but the palette growth is tracked separately so tests can
  /// observe train/test leakage-freedom.
  [[nodiscard]] std::uint32_t compress(const std::string& signature);

  [[nodiscard]] std::size_t palette_size() const noexcept { return next_color_; }

 private:
  std::unordered_map<std::string, std::uint32_t> table_;
  std::uint32_t next_color_ = 0;
};

/// Stateful 1-WL refiner: remembers the palette of every iteration so that
/// test graphs are refined consistently with the training collection.
class WlRefiner {
 public:
  /// \param iterations refinement depth h (0 = only initial colors).
  explicit WlRefiner(std::size_t iterations);

  [[nodiscard]] std::size_t iterations() const noexcept { return compressors_.size() - 1; }

  /// Colors `graph` at every depth 0..h.  `initial` may be empty (all
  /// vertices share color 0 — the unlabeled-graph convention used by the
  /// paper's protocol) or contain one label per vertex.
  /// Returns colorings[depth][vertex].
  [[nodiscard]] std::vector<Coloring> refine(const Graph& graph,
                                             std::span<const std::size_t> initial = {});

 private:
  std::vector<ColorCompressor> compressors_;  // one per depth 0..h
};

}  // namespace graphhd::kernels
