/// \file scalability.hpp
/// Synthetic datasets for the paper's scalability experiment (Fig. 4).
///
/// Section V-B: "We create synthetic datasets with 2 classes evenly split
/// over 100 graphs with varying numbers of vertices using the Erdős–Rényi
/// random graph model. The edge probability is set to 0.05."
///
/// The paper does not state how the two classes differ (the experiment
/// measures *time*, not accuracy).  We give class 1 a slightly higher edge
/// probability (0.055 by default) so every classifier has learnable signal
/// while the per-graph cost stays essentially identical (both probabilities
/// are ScalabilityConfig fields).

#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace graphhd::data {

/// Parameters of one scalability dataset.
struct ScalabilityConfig {
  std::size_t num_vertices = 100;   ///< n for every graph in the dataset.
  std::size_t num_graphs = 100;     ///< paper: 100, evenly split in 2 classes.
  double edge_probability = 0.05;   ///< paper: 0.05.
  double class1_edge_probability = 0.055;  ///< class contrast (see above).
};

/// Generates one Fig. 4 dataset ("ER-<n>").
[[nodiscard]] GraphDataset make_scalability_dataset(const ScalabilityConfig& config,
                                                    std::uint64_t seed);

/// The sweep of graph sizes used for the Fig. 4 x-axis.  The paper plots up
/// to 980 vertices; we default to {20, 80, 140, ..., 980} thinned by `step`.
[[nodiscard]] std::vector<std::size_t> scalability_sizes(std::size_t max_vertices = 980,
                                                         std::size_t step = 120);

}  // namespace graphhd::data
