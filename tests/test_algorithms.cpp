#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"

namespace {

using namespace graphhd::graph;
using graphhd::hdc::Rng;

TEST(ConnectedComponents, SinglePath) {
  const auto comps = connected_components(path_graph(5));
  EXPECT_EQ(comps.count, 1u);
}

TEST(ConnectedComponents, TwoIslands) {
  const auto g = Graph::from_edges(5, std::vector<Edge>{{0, 1}, {2, 3}});
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(comps.component_of[0], comps.component_of[1]);
  EXPECT_EQ(comps.component_of[2], comps.component_of[3]);
  EXPECT_NE(comps.component_of[0], comps.component_of[2]);
  EXPECT_NE(comps.component_of[4], comps.component_of[0]);
}

TEST(ConnectedComponents, EmptyGraph) {
  const auto comps = connected_components(Graph{});
  EXPECT_EQ(comps.count, 0u);
}

TEST(IsConnected, BasicCases) {
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_TRUE(is_connected(Graph::from_edges(1, {})));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  EXPECT_FALSE(is_connected(Graph::from_edges(3, std::vector<Edge>{{0, 1}})));
}

TEST(HasCycle, KnownCases) {
  EXPECT_FALSE(has_cycle(path_graph(5)));
  EXPECT_TRUE(has_cycle(cycle_graph(3)));
  EXPECT_FALSE(has_cycle(Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}})));
  Rng rng(5);
  EXPECT_FALSE(has_cycle(random_tree(50, rng)));
  // Two disjoint components, one cyclic.
  const auto g = Graph::from_edges(6, std::vector<Edge>{{0, 1}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_TRUE(has_cycle(g));
}

TEST(Relabel, IdentityKeepsGraph) {
  const auto g = cycle_graph(5);
  std::vector<VertexId> identity(5);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(relabel(g, identity), g);
}

TEST(Relabel, ValidatesPermutation) {
  const auto g = path_graph(3);
  EXPECT_THROW((void)relabel(g, std::vector<VertexId>{0, 1}), std::invalid_argument);
  EXPECT_THROW((void)relabel(g, std::vector<VertexId>{0, 0, 1}), std::invalid_argument);
  EXPECT_THROW((void)relabel(g, std::vector<VertexId>{0, 1, 5}), std::invalid_argument);
}

TEST(Relabel, PreservesDegreeMultiset) {
  Rng rng(7);
  const auto g = barabasi_albert(30, 2, rng);
  std::vector<VertexId> mapping(30);
  std::iota(mapping.begin(), mapping.end(), 0u);
  Rng shuffle_rng(11);
  shuffle_rng.shuffle(mapping);
  const auto h = relabel(g, mapping);
  for (VertexId v = 0; v < 30; ++v) EXPECT_EQ(g.degree(v), h.degree(mapping[v]));
  EXPECT_EQ(g.num_edges(), h.num_edges());
}

}  // namespace
