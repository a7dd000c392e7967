#include "core/encoder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/dense_reference.hpp"

namespace {

using namespace graphhd::core;
using graphhd::graph::cycle_graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
using graphhd::graph::VertexId;
using graphhd::hdc::Rng;
using graphhd::testsupport::similarity;

GraphHdConfig test_config(std::size_t dimension = 2048) {
  GraphHdConfig config;
  config.dimension = dimension;
  config.seed = 0x5eed;
  return config;
}

TEST(GraphHdConfig, ValidateRejectsBadValues) {
  GraphHdConfig config = test_config();
  config.dimension = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = test_config();
  config.pagerank_damping = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = test_config();
  config.vectors_per_class = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(GraphHdConfig, IdentifierNames) {
  EXPECT_STREQ(to_string(VertexIdentifier::kPageRank), "pagerank");
  EXPECT_STREQ(to_string(VertexIdentifier::kDegree), "degree");
}

TEST(Encoder, PackedRankCacheIsBounded) {
  // Regression: the packed rank rows used to be cached without bound — one
  // packed vector per centrality rank ever seen.  A graph with more vertices
  // than the cap must still encode correctly (identically to the dense
  // reference encoder) while the cache stays capped.
  GraphHdConfig config = test_config(512);
  GraphHdEncoder encoder(config);
  graphhd::testsupport::DenseEncoder reference(config);
  const std::size_t big = GraphHdEncoder::kPackedRankCacheCap + 100;
  const auto graph = path_graph(big);  // ranks 0..big-1 all occur.

  const auto packed = encoder.encode_packed(graph);
  EXPECT_LE(encoder.packed_rank_cache_size(), GraphHdEncoder::kPackedRankCacheCap);
  EXPECT_EQ(packed, graphhd::hdc::PackedHypervector::from_bipolar(reference.encode(graph)));

  // The bipolar encode is the same packed path; it respects the cap too.
  EXPECT_EQ(encoder.encode(graph), reference.encode(graph));
  EXPECT_LE(encoder.packed_rank_cache_size(), GraphHdEncoder::kPackedRankCacheCap);
}

TEST(Encoder, PackedRankCacheStaysBoundedAcrossGraphs) {
  GraphHdConfig config = test_config(256);
  GraphHdEncoder encoder(config);
  for (std::size_t n = 4; n < 40; n += 3) {
    (void)encoder.encode_packed(cycle_graph(n));
    (void)encoder.encode_packed(star_graph(n));
  }
  // Small graphs: the cache holds at most the largest rank seen, far below
  // the cap — growth tracks demand, not total graphs encoded.
  EXPECT_LE(encoder.packed_rank_cache_size(), 40u);
}

TEST(Encoder, DeterministicPerConfigSeed) {
  GraphHdEncoder a(test_config()), b(test_config());
  const auto g = star_graph(8);
  EXPECT_EQ(a.encode(g), b.encode(g));
}

TEST(Encoder, DifferentSeedsProduceDifferentEncodings) {
  GraphHdConfig other = test_config();
  other.seed = 0xabcd;
  GraphHdEncoder a(test_config()), b(other);
  const auto g = star_graph(8);
  EXPECT_NE(a.encode(g), b.encode(g));
}

TEST(Encoder, OutputDimensionMatchesConfig) {
  GraphHdConfig config = test_config(777);
  GraphHdEncoder encoder(config);
  EXPECT_EQ(encoder.encode(path_graph(5)).dimension(), 777u);
}

TEST(Encoder, RejectsEmptyGraph) {
  GraphHdEncoder encoder(test_config());
  EXPECT_THROW((void)encoder.encode(graphhd::graph::Graph{}), std::invalid_argument);
}

TEST(Encoder, EdgelessGraphUsesVertexFallback) {
  GraphHdEncoder encoder(test_config());
  graphhd::testsupport::DenseEncoder reference(test_config());
  const auto g = graphhd::graph::Graph::from_edges(4, {});
  const auto encoded = encoder.encode(g);
  EXPECT_EQ(encoded.dimension(), 2048u);
  // The fallback bundles rank basis vectors 0..3; the encoding must be
  // similar to each of them.
  for (std::size_t rank = 0; rank < 4; ++rank) {
    EXPECT_GT(similarity(encoded, reference.rank_basis(rank)), 0.1);
  }
}

TEST(Encoder, VertexRanksArePagerankRanks) {
  GraphHdEncoder encoder(test_config());
  const auto ranks = encoder.vertex_ranks(star_graph(6));
  EXPECT_EQ(ranks[0], 0u);  // center is most central
  // Leaves occupy ranks 1..5 in id order (deterministic tie-break).
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(ranks[v], v);
}

TEST(Encoder, DegreeIdentifierAblationWorks) {
  GraphHdConfig config = test_config();
  config.identifier = VertexIdentifier::kDegree;
  GraphHdEncoder encoder(config);
  const auto ranks = encoder.vertex_ranks(star_graph(6));
  EXPECT_EQ(ranks[0], 0u);
  const auto encoded = encoder.encode(star_graph(6));
  EXPECT_EQ(encoded.dimension(), config.dimension);
}

TEST(Encoder, HarmonicIdentifierAblationWorks) {
  GraphHdConfig config = test_config();
  config.identifier = VertexIdentifier::kHarmonic;
  GraphHdEncoder encoder(config);
  // Star center has the largest harmonic centrality -> rank 0.
  EXPECT_EQ(encoder.vertex_ranks(star_graph(6))[0], 0u);
  EXPECT_EQ(encoder.encode(star_graph(6)).dimension(), config.dimension);
  EXPECT_STREQ(to_string(VertexIdentifier::kHarmonic), "harmonic");
}

TEST(Encoder, IsomorphicGraphsEncodeIdentically) {
  // The central property of GraphHD: vertex identity comes from PageRank
  // rank only, so relabeling vertices must not change the encoding (as long
  // as the centrality ordering is preserved; ties break by id, so use a
  // tie-free graph: a star plus a path tail has fully distinct centralities).
  graphhd::graph::GraphBuilder builder;
  // Star 0-(1..4) with tail 4-5-6: all PageRank scores distinct.
  for (VertexId leaf = 1; leaf <= 4; ++leaf) builder.add_edge(0, leaf);
  builder.add_edge(4, 5);
  builder.add_edge(5, 6);
  const auto g = builder.build();

  // A permutation that reverses vertex ids.
  std::vector<VertexId> mapping(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mapping[v] = static_cast<VertexId>(g.num_vertices() - 1 - v);
  }
  const auto h = graphhd::graph::relabel(g, mapping);

  GraphHdEncoder encoder(test_config(10000));
  const auto eg = encoder.encode(g);
  const auto eh = encoder.encode(h);
  EXPECT_EQ(eg, eh);
}

TEST(Encoder, StructurallyDifferentGraphsQuasiOrthogonal) {
  GraphHdEncoder encoder(test_config(10000));
  const auto a = encoder.encode(path_graph(10));
  const auto b = encoder.encode(star_graph(10));
  EXPECT_LT(std::abs(similarity(a, b)), 0.2);
}

TEST(Encoder, SimilarGraphsMoreSimilarThanDissimilar) {
  // One chord difference vs a completely different topology.
  GraphHdEncoder encoder(test_config(10000));
  graphhd::hdc::Rng rng(7);
  const auto base = graphhd::graph::random_molecule(20, 2, rng);
  graphhd::graph::GraphBuilder builder(20);
  for (const auto& e : base.edges()) builder.add_edge(e.u, e.v);
  builder.add_edge(0, 19);  // one extra chord
  const auto near = builder.build();
  const auto far = star_graph(20);

  const auto eb = encoder.encode(base);
  EXPECT_GT(similarity(eb, encoder.encode(near)), similarity(eb, encoder.encode(far)));
}

TEST(Encoder, RankBasisVectorsAreQuasiOrthogonal) {
  graphhd::testsupport::DenseEncoder reference(test_config(10000));
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_LT(std::abs(similarity(reference.rank_basis(i), reference.rank_basis(j))), 0.05);
    }
  }
}

TEST(Encoder, VertexLabelsChangeEncodingOnlyWhenEnabled) {
  const auto g = path_graph(6);
  const std::vector<std::size_t> labels{0, 1, 0, 1, 0, 1};

  GraphHdConfig plain_config = test_config();
  GraphHdEncoder plain(plain_config);
  EXPECT_EQ(plain.encode_packed(g), plain.encode_packed(g, labels))
      << "labels must be ignored when use_vertex_labels is false";

  GraphHdConfig labeled_config = test_config();
  labeled_config.use_vertex_labels = true;
  GraphHdEncoder labeled(labeled_config);
  EXPECT_NE(labeled.encode_packed(g), labeled.encode_packed(g, labels));
}

TEST(Encoder, LabelAwareEncodingDistinguishesLabelings) {
  GraphHdConfig config = test_config(10000);
  config.use_vertex_labels = true;
  GraphHdEncoder encoder(config);
  const auto g = path_graph(6);
  const std::vector<std::size_t> labels_a{0, 0, 0, 1, 1, 1};
  const std::vector<std::size_t> labels_b{1, 1, 1, 0, 0, 0};
  const auto ea = encoder.encode_packed(g, labels_a);
  const auto eb = encoder.encode_packed(g, labels_b);
  EXPECT_LT(ea.similarity(eb), 0.9);
  // Same labeling encodes identically.
  EXPECT_EQ(ea, encoder.encode_packed(g, labels_a));
}

TEST(Encoder, LabelSizeValidated) {
  GraphHdConfig config = test_config();
  config.use_vertex_labels = true;
  GraphHdEncoder encoder(config);
  EXPECT_THROW((void)encoder.encode_packed(path_graph(3), std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
}

TEST(Encoder, NeighborhoodRoundsChangeTheEncoding) {
  GraphHdConfig base = test_config();
  GraphHdConfig refined_config = test_config();
  refined_config.neighborhood_rounds = 1;
  GraphHdEncoder plain(base), refined(refined_config);
  const auto g = star_graph(8);
  EXPECT_NE(plain.encode(g), refined.encode(g));
  // Deterministic per config.
  GraphHdEncoder refined_again(refined_config);
  EXPECT_EQ(refined.encode(g), refined_again.encode(g));
}

TEST(Encoder, NeighborhoodRoundsPreserveIsomorphismInvariance) {
  // Same tie-free graph construction as the base invariance test.
  graphhd::graph::GraphBuilder builder;
  for (graphhd::graph::VertexId leaf = 1; leaf <= 4; ++leaf) builder.add_edge(0, leaf);
  builder.add_edge(4, 5);
  builder.add_edge(5, 6);
  const auto g = builder.build();
  std::vector<graphhd::graph::VertexId> mapping(g.num_vertices());
  for (graphhd::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    mapping[v] = static_cast<graphhd::graph::VertexId>(g.num_vertices() - 1 - v);
  }
  const auto h = graphhd::graph::relabel(g, mapping);

  GraphHdConfig config = test_config(8192);
  config.neighborhood_rounds = 2;
  GraphHdEncoder encoder(config);
  EXPECT_EQ(encoder.encode(g), encoder.encode(h));
}

TEST(Encoder, NeighborhoodRoundsKeepTopologiesDistinct) {
  // The rank-ordered permute-bind decorrelates the refined (bundle-
  // overlapping) endpoint vectors, so different topologies must stay well
  // separated rather than collapsing toward a shared direction (the failure
  // mode that plain binding of refined vectors exhibits — see encoder.cpp).
  for (const std::size_t rounds : {1u, 2u}) {
    GraphHdConfig config = test_config(8192);
    config.neighborhood_rounds = rounds;
    GraphHdEncoder encoder(config);
    const double cosine =
        similarity(encoder.encode(star_graph(10)), encoder.encode(path_graph(10)));
    EXPECT_LT(std::abs(cosine), 0.5) << rounds << " rounds";
  }
}

/// Dimension sweep: the encoder works across dimensions and similarity noise
/// shrinks as 1/sqrt(d).
class EncoderDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EncoderDimensionSweep, EncodingsBehaveAtAllDimensions) {
  GraphHdEncoder encoder(test_config(GetParam()));
  const auto a = encoder.encode(path_graph(8));
  const auto b = encoder.encode(cycle_graph(8));
  EXPECT_EQ(a.dimension(), GetParam());
  EXPECT_EQ(b.dimension(), GetParam());
  // Self-consistency at every dimension.
  EXPECT_EQ(a, encoder.encode(path_graph(8)));
}

INSTANTIATE_TEST_SUITE_P(Dimensions, EncoderDimensionSweep,
                         ::testing::Values(64, 256, 1024, 4096, 10000));

}  // namespace
