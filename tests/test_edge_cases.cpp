/// Cross-module edge cases: inputs that are legal but unusual — interleaved
/// TUDataset vertex blocks, isolated vertices flowing through every
/// classifier, degenerate SVM inputs, edgeless graphs through both encoder
/// paths.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/encoder.hpp"
#include "data/tudataset.hpp"
#include "graph/generators.hpp"
#include "kernels/wl_subtree.hpp"
#include "ml/svm.hpp"
#include "nn/gin.hpp"
#include "support/dense_reference.hpp"

namespace {

namespace fs = std::filesystem;

TEST(TudatasetEdge, InterleavedGraphIndicatorBlocks) {
  // The format does not require graph vertex blocks to be contiguous; the
  // parser assigns local ids in order of appearance.
  const fs::path dir =
      fs::temp_directory_path() / ("graphhd_interleaved_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  {
    std::ofstream(dir / "DS_graph_indicator.txt") << "1\n2\n1\n2\n";
    // Global vertices 1,3 belong to graph 1 (local 0,1); 2,4 to graph 2.
    std::ofstream(dir / "DS_A.txt") << "1, 3\n2, 4\n";
    std::ofstream(dir / "DS_graph_labels.txt") << "0\n1\n";
  }
  const auto dataset = graphhd::data::load_tudataset(dir, "DS");
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.graph(0).num_vertices(), 2u);
  EXPECT_TRUE(dataset.graph(0).has_edge(0, 1));
  EXPECT_TRUE(dataset.graph(1).has_edge(0, 1));
  fs::remove_all(dir);
}

TEST(WlEdge, IsolatedVerticesKeepTheirColor) {
  // Isolated vertices have the empty neighborhood signature at every depth;
  // they must stay counted and consistent across graphs.
  graphhd::kernels::WlFeaturizer featurizer(2);
  const auto g = graphhd::graph::Graph::from_edges(
      4, std::vector<graphhd::graph::Edge>{{0, 1}});
  const auto features = featurizer.transform(g, {});
  for (std::size_t depth = 0; depth <= 2; ++depth) {
    std::size_t total = 0;
    for (const auto& [color, count] : features.histograms[depth]) total += count;
    EXPECT_EQ(total, 4u) << "depth " << depth;
  }
  // Two isolated vertices are WL-equivalent; depth-2 partition: {0,1},{2,3}
  // in some grouping — at most 3 distinct colors (edge pair + isolated).
  EXPECT_LE(features.histograms[2].size(), 3u);
}

TEST(SvmEdge, DuplicatePointsWithConflictingLabelsTerminate) {
  // Two identical points with opposite labels: not separable; SMO must
  // terminate at the box bound rather than loop.
  graphhd::kernels::DenseMatrix gram(2, 2);
  gram.at(0, 0) = gram.at(0, 1) = gram.at(1, 0) = gram.at(1, 1) = 1.0;
  const std::vector<int> labels{1, -1};
  graphhd::ml::SvmConfig config;
  config.C = 10.0;
  config.max_iterations = 10000;
  const auto model = graphhd::ml::train_binary_svm(gram, labels, config);
  EXPECT_LT(model.iterations, 10000u);
}

TEST(SvmEdge, SinglePointPerClass) {
  graphhd::kernels::DenseMatrix gram(2, 2);
  gram.at(0, 0) = 2.0;
  gram.at(1, 1) = 2.0;
  gram.at(0, 1) = gram.at(1, 0) = -1.0;
  const auto model =
      graphhd::ml::train_binary_svm(gram, std::vector<int>{1, -1}, {.C = 1.0});
  // Decision at the two training rows must have the right signs.
  EXPECT_GT(model.decision(std::vector<double>{2.0, -1.0}), 0.0);
  EXPECT_LT(model.decision(std::vector<double>{-1.0, 2.0}), 0.0);
}

TEST(GinEdge, IsolatedVerticesFlowThroughMessagePassing) {
  graphhd::nn::GinConfig config;
  config.hidden_units = 4;
  config.num_classes = 2;
  graphhd::nn::GinNetwork network(config);
  const auto g = graphhd::graph::Graph::from_edges(
      5, std::vector<graphhd::graph::Edge>{{0, 1}});
  EXPECT_EQ(network.logits(g).size(), 2u);
  EXPECT_NO_THROW((void)network.accumulate_gradients(g, 1));
}

TEST(EncoderEdge, EdgelessGraphsIdenticalOnBothPaths) {
  // The vertex-bundle fallback of the packed encoder against the dense
  // reference encoder's.
  graphhd::core::GraphHdConfig config;
  config.dimension = 1024;
  graphhd::core::GraphHdEncoder a(config);
  graphhd::testsupport::DenseEncoder b(config);
  const auto edgeless = graphhd::graph::Graph::from_edges(6, {});
  EXPECT_EQ(a.encode(edgeless), b.encode(edgeless));
}

TEST(EncoderEdge, SingleVertexGraph) {
  // Fallback bundles the single vertex basis vector: must equal it exactly,
  // tail word included.
  for (const std::size_t d : {512u, 10001u}) {
    graphhd::core::GraphHdConfig config;
    config.dimension = d;
    graphhd::core::GraphHdEncoder encoder(config);
    graphhd::testsupport::DenseEncoder reference(config);
    const auto single = graphhd::graph::Graph::from_edges(1, {});
    EXPECT_EQ(encoder.encode(single), reference.rank_basis(0)) << "d=" << d;
  }
}

TEST(EncoderEdge, SingleEdgeGraph) {
  graphhd::core::GraphHdConfig config;
  config.dimension = 512;
  graphhd::core::GraphHdEncoder encoder(config);
  graphhd::testsupport::DenseEncoder reference(config);
  const auto pair = graphhd::graph::Graph::from_edges(
      2, std::vector<graphhd::graph::Edge>{{0, 1}});
  // One edge: the graph hypervector is exactly the bound pair of rank basis
  // vectors (single-input majority).
  const auto expected =
      graphhd::testsupport::bind(reference.rank_basis(0), reference.rank_basis(1));
  EXPECT_EQ(encoder.encode(pair), expected);
}

TEST(EncoderEdge, HugeRankIndicesMaterializeLazily) {
  graphhd::core::GraphHdConfig config;
  config.dimension = 256;
  graphhd::core::GraphHdEncoder encoder(config);
  // A 600-vertex graph touches 600 basis vectors without issue.
  graphhd::hdc::Rng rng(3);
  const auto g = graphhd::graph::erdos_renyi(600, 0.02, rng);
  EXPECT_EQ(encoder.encode(g).dimension(), 256u);
}

}  // namespace
