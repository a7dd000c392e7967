#include "kernels/wl_refinement.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace {

using namespace graphhd::kernels;
using graphhd::graph::cycle_graph;
using graphhd::graph::Edge;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
using graphhd::graph::VertexId;
using graphhd::hdc::Rng;

TEST(ColorCompressor, FreshSignaturesGetSequentialColors) {
  ColorCompressor compressor;
  EXPECT_EQ(compressor.compress("a"), 0u);
  EXPECT_EQ(compressor.compress("b"), 1u);
  EXPECT_EQ(compressor.compress("a"), 0u);
  EXPECT_EQ(compressor.palette_size(), 2u);
}

TEST(WlRefiner, DepthZeroIsInitialColors) {
  WlRefiner refiner(0);
  const auto colorings = refiner.refine(path_graph(4));
  ASSERT_EQ(colorings.size(), 1u);
  for (const auto c : colorings[0]) EXPECT_EQ(c, 0u);
}

TEST(WlRefiner, FirstIterationSeparatesByDegree) {
  WlRefiner refiner(1);
  const auto colorings = refiner.refine(path_graph(4));
  const auto& depth1 = colorings[1];
  // Path 0-1-2-3: endpoints (deg 1) share a color, middles (deg 2) share
  // another, and the two groups differ.
  EXPECT_EQ(depth1[0], depth1[3]);
  EXPECT_EQ(depth1[1], depth1[2]);
  EXPECT_NE(depth1[0], depth1[1]);
}

TEST(WlRefiner, PaletteIsSharedAcrossGraphs) {
  WlRefiner refiner(1);
  const auto first = refiner.refine(path_graph(4));
  const auto second = refiner.refine(path_graph(4));
  // Identical graphs refined through the same palette get identical colors.
  EXPECT_EQ(first[1], second[1]);
}

TEST(WlRefiner, DistinctStructuresGetDistinctColors) {
  WlRefiner refiner(1);
  const auto path = refiner.refine(path_graph(4));
  const auto star = refiner.refine(star_graph(4));
  // A star center (degree 3) must not share a depth-1 color with any path
  // vertex (degrees 1 and 2).
  for (const auto star_color : {star[1][0]}) {
    for (const auto path_color : path[1]) {
      EXPECT_NE(star_color, path_color);
    }
  }
}

TEST(WlRefiner, InitialLabelsRespected) {
  WlRefiner refiner(0);
  const std::vector<std::size_t> labels{5, 5, 9};
  const auto colorings = refiner.refine(path_graph(3), labels);
  EXPECT_EQ(colorings[0][0], colorings[0][1]);
  EXPECT_NE(colorings[0][0], colorings[0][2]);
}

TEST(WlRefiner, InitialLabelSizeValidated) {
  WlRefiner refiner(1);
  const std::vector<std::size_t> labels{1, 2};
  EXPECT_THROW((void)refiner.refine(path_graph(3), labels), std::invalid_argument);
}

TEST(WlRefiner, RegularGraphsStayMonochromatic) {
  // 1-WL cannot distinguish vertices of a vertex-transitive graph: every
  // refinement level keeps a single color class.
  WlRefiner refiner(3);
  const auto colorings = refiner.refine(cycle_graph(7));
  for (const auto& coloring : colorings) {
    for (const auto c : coloring) EXPECT_EQ(c, coloring[0]);
  }
}

TEST(WlRefiner, ColoringIsIsomorphismInvariant) {
  Rng rng(5);
  const auto g = graphhd::graph::erdos_renyi(20, 0.2, rng);
  std::vector<VertexId> mapping(20);
  std::iota(mapping.begin(), mapping.end(), 0u);
  Rng shuffle_rng(7);
  shuffle_rng.shuffle(mapping);
  const auto h = graphhd::graph::relabel(g, mapping);

  WlRefiner refiner(3);
  const auto cg = refiner.refine(g);
  const auto ch = refiner.refine(h);
  // Vertex v of g corresponds to mapping[v] of h and must share its color at
  // every depth.
  for (std::size_t depth = 0; depth < cg.size(); ++depth) {
    for (VertexId v = 0; v < 20; ++v) {
      EXPECT_EQ(cg[depth][v], ch[depth][mapping[v]]) << "depth " << depth;
    }
  }
}

}  // namespace
