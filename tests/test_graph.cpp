#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace {

using namespace graphhd::graph;

TEST(Graph, DefaultIsEmpty) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, FromEdgesBuildsTriangle) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  const auto g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Graph, NeighborsAreSortedAscending) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}};
  const auto g = Graph::from_edges(4, edges);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, AdjacencyIsSymmetric) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}};
  const auto g = Graph::from_edges(4, edges);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) {
      const auto back = g.neighbors(u);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << "edge (" << v << "," << u << ") not symmetric";
    }
  }
}

TEST(Graph, EdgesAreCanonicalAndSorted) {
  const std::vector<Edge> edges{{3, 1}, {2, 0}, {1, 0}};
  const auto g = Graph::from_edges(4, edges);
  const auto list = g.edges();
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  for (const Edge& e : list) EXPECT_LT(e.u, e.v);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW((void)Graph::from_edges(3, edges), std::invalid_argument);
}

TEST(Graph, FromEdgesRejectsSelfLoop) {
  const std::vector<Edge> edges{{1, 1}};
  EXPECT_THROW((void)Graph::from_edges(3, edges), std::invalid_argument);
}

TEST(Graph, FromEdgesRejectsDuplicates) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}};
  EXPECT_THROW((void)Graph::from_edges(2, edges), std::invalid_argument);
}

TEST(Graph, HasEdgeQueries) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  const auto g = Graph::from_edges(4, edges);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(3, 3));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(Graph, DegreeAndNeighborsValidateRange) {
  const auto g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  EXPECT_THROW((void)g.degree(2), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(2), std::out_of_range);
}

TEST(Graph, DensityOfCompleteGraphIsOne) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}};
  EXPECT_DOUBLE_EQ(Graph::from_edges(3, edges).density(), 1.0);
}

TEST(Graph, DensityOfEdgelessIsZero) {
  EXPECT_DOUBLE_EQ(Graph::from_edges(5, {}).density(), 0.0);
  EXPECT_DOUBLE_EQ(Graph::from_edges(1, {}).density(), 0.0);
}

TEST(Graph, IsolatedVerticesAllowed) {
  const auto g = Graph::from_edges(10, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(9), 0u);
  EXPECT_TRUE(g.neighbors(9).empty());
}

TEST(Graph, EqualityIsStructural) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  EXPECT_EQ(Graph::from_edges(3, edges), Graph::from_edges(3, edges));
  EXPECT_NE(Graph::from_edges(3, edges), Graph::from_edges(4, edges));
}

TEST(GraphBuilder, StartsEmpty) {
  GraphBuilder builder;
  EXPECT_EQ(builder.num_vertices(), 0u);
  EXPECT_EQ(builder.num_edges_added(), 0u);
}

TEST(GraphBuilder, AddEdgeGrowsVertexSet) {
  GraphBuilder builder;
  EXPECT_TRUE(builder.add_edge(2, 7));
  EXPECT_EQ(builder.num_vertices(), 8u);
}

TEST(GraphBuilder, IgnoresDuplicatesBothDirections) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.add_edge(0, 1));
  EXPECT_FALSE(builder.add_edge(0, 1));
  EXPECT_FALSE(builder.add_edge(1, 0));
  EXPECT_EQ(builder.num_edges_added(), 1u);
  EXPECT_EQ(builder.duplicates_ignored(), 2u);
}

TEST(GraphBuilder, IgnoresSelfLoops) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.add_edge(1, 1));
  EXPECT_EQ(builder.self_loops_ignored(), 1u);
  EXPECT_EQ(builder.num_edges_added(), 0u);
}

TEST(GraphBuilder, BuildMatchesFromEdges) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  builder.add_edge(1, 2);
  const auto built = builder.build();
  const auto direct = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(built, direct);
}

TEST(GraphBuilder, EnsureVerticesNeverShrinks) {
  GraphBuilder builder(5);
  builder.ensure_vertices(2);
  EXPECT_EQ(builder.num_vertices(), 5u);
  builder.ensure_vertices(9);
  EXPECT_EQ(builder.num_vertices(), 9u);
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  const auto first = builder.build();
  const auto second = builder.build();
  EXPECT_EQ(first, second);
}

TEST(EdgeOrdering, LexicographicByPair) {
  EXPECT_LT((Edge{0, 1}), (Edge{0, 2}));
  EXPECT_LT((Edge{0, 9}), (Edge{1, 2}));
  EXPECT_EQ((Edge{2, 3}), (Edge{2, 3}));
}

}  // namespace
