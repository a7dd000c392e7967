#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/proptest.hpp"

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

/// Random insertions, self-loops and repeats in both orientations included.
struct Insertions {
  std::size_t num_vertices = 0;
  std::vector<std::pair<VertexId, VertexId>> pairs;
};

std::ostream& operator<<(std::ostream& out, const Insertions& c) {
  out << c.num_vertices << " vertices:";
  for (const auto& [u, v] : c.pairs) out << " (" << u << "," << v << ")";
  return out;
}

TEST(GraphBuilder, MatchesASetReference) {
  // The builder's hashed duplicate check and from_edges' counting-sort CSR
  // against a std::set: same add_edge answers and counters, and a graph
  // whose neighbor runs and canonical edge list are the set's, sorted.
  graphhd::proptest::check<Insertions>(
      "GraphBuilder matches a std::set of canonical pairs",
      [](graphhd::hdc::Rng& rng, std::size_t index) {
        Insertions c;
        c.num_vertices = 1 + rng.next_below(index < 8 ? 4 : 80);
        const std::size_t count = rng.next_below(4 * c.num_vertices + 8);
        const bool star = index % 5 == 4;
        for (std::size_t i = 0; i < count; ++i) {
          const auto u = star ? 0 : static_cast<VertexId>(rng.next_below(c.num_vertices));
          const auto v = static_cast<VertexId>(rng.next_below(c.num_vertices));
          c.pairs.emplace_back(u, v);
        }
        return c;
      },
      [](const Insertions& c) {
        std::vector<Insertions> smaller;
        if (!c.pairs.empty()) {
          Insertions fewer = c;
          fewer.pairs.resize(c.pairs.size() / 2);
          smaller.push_back(std::move(fewer));
        }
        return smaller;
      },
      [](const Insertions& c, std::ostream& diag) {
        diag << c;
        GraphBuilder builder(c.num_vertices);
        std::set<std::pair<VertexId, VertexId>> reference;
        std::size_t duplicates = 0, self_loops = 0;
        for (const auto& [u, v] : c.pairs) {
          bool expected = false;
          if (u == v) {
            ++self_loops;
          } else if (reference.emplace(std::min(u, v), std::max(u, v)).second) {
            expected = true;
          } else {
            ++duplicates;
          }
          if (builder.add_edge(u, v) != expected) {
            diag << " [add_edge(" << u << "," << v << ") answered wrong]";
            return false;
          }
        }
        if (builder.duplicates_ignored() != duplicates ||
            builder.self_loops_ignored() != self_loops ||
            builder.num_edges_added() != reference.size()) {
          diag << " [counters differ]";
          return false;
        }
        const Graph g = builder.build();
        std::vector<Edge> edges;
        std::map<VertexId, std::vector<VertexId>> neighbors;
        for (const auto& [u, v] : reference) {
          edges.push_back({u, v});
          neighbors[u].push_back(v);
          neighbors[v].push_back(u);
        }
        if (!std::equal(edges.begin(), edges.end(), g.edges().begin(), g.edges().end())) {
          diag << " [edges() differs]";
          return false;
        }
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          auto expected = neighbors[v];
          std::sort(expected.begin(), expected.end());
          const auto actual = g.neighbors(v);
          if (!std::equal(expected.begin(), expected.end(), actual.begin(), actual.end())) {
            diag << " [neighbors(" << v << ") differ]";
            return false;
          }
        }
        // from_edges takes the same edges in any order and orientation.
        std::vector<Edge> shuffled;
        for (auto it = reference.rbegin(); it != reference.rend(); ++it) {
          shuffled.push_back(shuffled.size() % 2 == 0 ? Edge{it->second, it->first}
                                                      : Edge{it->first, it->second});
        }
        if (Graph::from_edges(g.num_vertices(), shuffled) != g) {
          diag << " [from_edges on reordered edges differs]";
          return false;
        }
        return true;
      },
      graphhd::proptest::Config{.cases = 96, .min_cases = 8});
}

TEST(Graph, FromEdgesRejectsDuplicatesAtHubs) {
  // A duplicate inside a long (std::sort) run is found as in a short one.
  std::vector<Edge> edges;
  for (VertexId v = 1; v < 100; ++v) edges.push_back({0, v});
  edges.push_back({57, 0});
  EXPECT_THROW((void)Graph::from_edges(100, edges), std::invalid_argument);
}

TEST(EdgeOrdering, LexicographicByPair) {
  EXPECT_LT((Edge{0, 1}), (Edge{0, 2}));
  EXPECT_LT((Edge{0, 9}), (Edge{1, 2}));
  EXPECT_EQ((Edge{2, 3}), (Edge{2, 3}));
}

}  // namespace
