#include "data/tudataset.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "graph/generators.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd::data;
using graphhd::graph::cycle_graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;

class TudatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("graphhd_tud_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& filename, const std::string& content) {
    std::ofstream out(dir_ / filename);
    out << content;
  }

  fs::path dir_;
};

TEST_F(TudatasetTest, RoundTripPreservesDataset) {
  GraphDataset original("TOY", {path_graph(3), cycle_graph(4), star_graph(5)}, {0, 1, 0});
  save_tudataset(original, dir_);
  ASSERT_TRUE(tudataset_exists(dir_, "TOY"));
  const auto loaded = load_tudataset(dir_, "TOY");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.graph(i), original.graph(i)) << "graph " << i;
    EXPECT_EQ(loaded.label(i), original.label(i)) << "label " << i;
  }
  EXPECT_FALSE(loaded.has_vertex_labels());
}

TEST_F(TudatasetTest, RoundTripWithVertexLabels) {
  GraphDataset original("TOY", {path_graph(2), path_graph(3)}, {0, 1});
  original.set_vertex_labels({{4, 5}, {6, 7, 8}});
  save_tudataset(original, dir_);
  const auto loaded = load_tudataset(dir_, "TOY");
  ASSERT_TRUE(loaded.has_vertex_labels());
  // Labels are densified preserving numeric order: 4..8 -> 0..4.
  EXPECT_EQ(loaded.vertex_labels()[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(loaded.vertex_labels()[1], (std::vector<std::size_t>{2, 3, 4}));
}

TEST_F(TudatasetTest, ExistsRequiresAllMandatoryFiles) {
  EXPECT_FALSE(tudataset_exists(dir_, "DS"));
  write("DS_A.txt", "");
  write("DS_graph_indicator.txt", "");
  EXPECT_FALSE(tudataset_exists(dir_, "DS"));
  write("DS_graph_labels.txt", "");
  EXPECT_TRUE(tudataset_exists(dir_, "DS"));
}

TEST_F(TudatasetTest, ParsesSingleDirectionEdgeLists) {
  // Two triangles; edges listed once only (some TUDataset mirrors do this).
  write("DS_A.txt", "1, 2\n2, 3\n1, 3\n4, 5\n5, 6\n4, 6\n");
  write("DS_graph_indicator.txt", "1\n1\n1\n2\n2\n2\n");
  write("DS_graph_labels.txt", "1\n-1\n");
  const auto dataset = load_tudataset(dir_, "DS");
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.graph(0).num_edges(), 3u);
  EXPECT_EQ(dataset.graph(1).num_edges(), 3u);
  // Labels -1/1 densify to 0/1 preserving numeric order.
  EXPECT_EQ(dataset.label(0), 1u);
  EXPECT_EQ(dataset.label(1), 0u);
}

TEST_F(TudatasetTest, MergesBothDirectionEdgeLists) {
  write("DS_A.txt", "1, 2\n2, 1\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "7\n");
  const auto dataset = load_tudataset(dir_, "DS");
  EXPECT_EQ(dataset.graph(0).num_edges(), 1u);
}

TEST_F(TudatasetTest, ToleratesCommentsAndBlankLines) {
  write("DS_A.txt", "# adjacency\n\n1, 2\n  \n2, 3 # tail comment\n");
  write("DS_graph_indicator.txt", "1\n1\n1\n");
  write("DS_graph_labels.txt", "# labels\n0\n");
  const auto dataset = load_tudataset(dir_, "DS");
  EXPECT_EQ(dataset.graph(0).num_edges(), 2u);
}

TEST_F(TudatasetTest, ToleratesWhitespaceVariants) {
  write("DS_A.txt", "1,2\n2 , 3\n3\t,\t1\n");
  write("DS_graph_indicator.txt", "1\n1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  const auto dataset = load_tudataset(dir_, "DS");
  EXPECT_EQ(dataset.graph(0).num_edges(), 3u);
}

TEST_F(TudatasetTest, RejectsMissingFiles) {
  EXPECT_THROW((void)load_tudataset(dir_, "NOPE"), std::runtime_error);
}

TEST_F(TudatasetTest, RejectsCrossGraphEdges) {
  write("DS_A.txt", "1, 3\n");
  write("DS_graph_indicator.txt", "1\n1\n2\n");
  write("DS_graph_labels.txt", "0\n1\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, RejectsOutOfRangeVertexIds) {
  write("DS_A.txt", "1, 99\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, RejectsWrongLabelCount) {
  write("DS_A.txt", "1, 2\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "0\n1\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, RejectsMalformedIntegers) {
  write("DS_A.txt", "1, banana\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, RejectsEdgeLineWithWrongArity) {
  write("DS_A.txt", "1, 2, 3\n");
  write("DS_graph_indicator.txt", "1\n1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, IgnoresSelfLoopsInInput) {
  write("DS_A.txt", "1, 1\n1, 2\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  const auto dataset = load_tudataset(dir_, "DS");
  EXPECT_EQ(dataset.graph(0).num_edges(), 1u);
}

TEST_F(TudatasetTest, IsolatedVerticesSurviveRoundTrip) {
  GraphDataset original("TOY", {graphhd::graph::Graph::from_edges(
                                   4, std::vector<graphhd::graph::Edge>{{0, 1}})},
                        {0});
  save_tudataset(original, dir_);
  const auto loaded = load_tudataset(dir_, "TOY");
  EXPECT_EQ(loaded.graph(0).num_vertices(), 4u);
  EXPECT_EQ(loaded.graph(0).num_edges(), 1u);
}

TEST_F(TudatasetTest, RejectsWrongNodeLabelCount) {
  write("DS_A.txt", "1, 2\n");
  write("DS_graph_indicator.txt", "1\n1\n");
  write("DS_graph_labels.txt", "0\n");
  write("DS_node_labels.txt", "0\n");
  EXPECT_THROW((void)load_tudataset(dir_, "DS"), std::runtime_error);
}

TEST_F(TudatasetTest, SaveReportsWriteErrors) {
  // Regression: save_tudataset never checked its streams, so a full disk
  // left a truncated dataset behind without an error.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full is not available";
  fs::create_symlink("/dev/full", dir_ / "TOY_A.txt");
  GraphDataset original("TOY", {path_graph(3), cycle_graph(4)}, {0, 1});
  EXPECT_THROW(save_tudataset(original, dir_), std::runtime_error);
}

}  // namespace
