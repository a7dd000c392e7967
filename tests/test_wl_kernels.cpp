#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "kernels/kernel_matrix.hpp"
#include "kernels/wl_oa.hpp"
#include "kernels/wl_subtree.hpp"

namespace {

using namespace graphhd::kernels;
using graphhd::graph::cycle_graph;
using graphhd::graph::Graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
using graphhd::graph::VertexId;
using graphhd::hdc::Rng;

std::vector<Graph> fixture_graphs() {
  return {path_graph(5), cycle_graph(5), star_graph(5), path_graph(7), cycle_graph(7)};
}

TEST(WlFeatures, DepthZeroHistogramIsVertexCount) {
  WlFeaturizer featurizer(2);
  const auto features = featurizer.transform(path_graph(6), {});
  ASSERT_EQ(features.histograms.size(), 3u);
  ASSERT_EQ(features.histograms[0].size(), 1u);  // all vertices share color 0
  EXPECT_EQ(features.histograms[0][0].second, 6u);
  EXPECT_EQ(features.num_vertices(), 6u);
}

TEST(WlSubtree, DepthZeroKernelIsProductOfSizes) {
  // With uniform initial colors, phi_0(G) = (|V|), so k_0(G, G') = |V||V'|.
  WlFeaturizer featurizer(0);
  const auto a = featurizer.transform(path_graph(4), {});
  const auto b = featurizer.transform(cycle_graph(6), {});
  EXPECT_DOUBLE_EQ(wl_subtree_kernel(a, b, 0), 24.0);
}

TEST(WlSubtree, Depth1HandComputedValue) {
  // P3 (path 0-1-2) vs P4 at depth 1.
  // Colors after 1 WL step: endpoint (deg1) vs middle (deg2).
  // P3: 2 endpoints + 1 middle; P4: 2 endpoints + 2 middles.
  // k_1 = k_0 + <(2,1), (2,2)> = 12 + (4 + 2) = 18.
  WlFeaturizer featurizer(1);
  const auto a = featurizer.transform(path_graph(3), {});
  const auto b = featurizer.transform(path_graph(4), {});
  EXPECT_DOUBLE_EQ(wl_subtree_kernel(a, b, 1), 18.0);
}

TEST(WlSubtree, KernelIsSymmetric) {
  WlFeaturizer featurizer(3);
  const auto features = featurizer.transform(fixture_graphs());
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      EXPECT_DOUBLE_EQ(wl_subtree_kernel(features[i], features[j], 3),
                       wl_subtree_kernel(features[j], features[i], 3));
    }
  }
}

TEST(WlSubtree, SelfKernelDominates) {
  // Cauchy-Schwarz: k(a,b)^2 <= k(a,a) k(b,b).
  WlFeaturizer featurizer(3);
  const auto features = featurizer.transform(fixture_graphs());
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      const double kab = wl_subtree_kernel(features[i], features[j], 3);
      const double kaa = wl_subtree_kernel(features[i], features[i], 3);
      const double kbb = wl_subtree_kernel(features[j], features[j], 3);
      EXPECT_LE(kab * kab, kaa * kbb * (1.0 + 1e-12));
    }
  }
}

TEST(WlSubtree, IsomorphicGraphsHaveEqualFeatureKernels) {
  Rng rng(3);
  const auto g = graphhd::graph::erdos_renyi(15, 0.25, rng);
  std::vector<VertexId> mapping(15);
  std::iota(mapping.begin(), mapping.end(), 0u);
  Rng shuffle_rng(5);
  shuffle_rng.shuffle(mapping);
  const auto h = graphhd::graph::relabel(g, mapping);

  WlFeaturizer featurizer(3);
  const auto fg = featurizer.transform(g, {});
  const auto fh = featurizer.transform(h, {});
  EXPECT_DOUBLE_EQ(wl_subtree_kernel(fg, fg, 3), wl_subtree_kernel(fg, fh, 3));
  EXPECT_DOUBLE_EQ(wl_subtree_kernel(fg, fg, 3), wl_subtree_kernel(fh, fh, 3));
}

TEST(WlSubtree, KernelGrowsWithDepth) {
  WlFeaturizer featurizer(4);
  const auto a = featurizer.transform(path_graph(6), {});
  double previous = 0.0;
  for (std::size_t depth = 0; depth <= 4; ++depth) {
    const double k = wl_subtree_kernel(a, a, depth);
    EXPECT_GT(k, previous);
    previous = k;
  }
}

TEST(WlSubtree, DepthBeyondFeaturesThrows) {
  WlFeaturizer featurizer(1);
  const auto a = featurizer.transform(path_graph(3), {});
  EXPECT_THROW((void)wl_subtree_kernel(a, a, 2), std::invalid_argument);
}

TEST(WlSubtree, GramMatchesPairwiseKernels) {
  WlFeaturizer featurizer(2);
  const auto features = featurizer.transform(fixture_graphs());
  const auto gram = wl_subtree_gram(features, 2);
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      EXPECT_DOUBLE_EQ(gram.at(i, j), wl_subtree_kernel(features[i], features[j], 2));
    }
  }
  EXPECT_DOUBLE_EQ(max_asymmetry(gram), 0.0);
}

TEST(WlSubtree, BatchGramsMatchSingleDepthGrams) {
  WlFeaturizer featurizer(3);
  const auto features = featurizer.transform(fixture_graphs());
  const auto batch = wl_subtree_grams(features, 3);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t depth = 0; depth <= 3; ++depth) {
    const auto single = wl_subtree_gram(features, depth);
    for (std::size_t i = 0; i < features.size(); ++i) {
      for (std::size_t j = 0; j < features.size(); ++j) {
        EXPECT_DOUBLE_EQ(batch[depth].at(i, j), single.at(i, j));
      }
    }
  }
}

TEST(WlSubtree, CrossBlockMatchesKernels) {
  WlFeaturizer featurizer(2);
  const auto graphs = fixture_graphs();
  const auto all = featurizer.transform(graphs);
  const std::vector<WlFeatures> rows(all.begin(), all.begin() + 2);
  const std::vector<WlFeatures> cols(all.begin() + 2, all.end());
  const auto cross = wl_subtree_cross(rows, cols, 2);
  EXPECT_EQ(cross.rows(), 2u);
  EXPECT_EQ(cross.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(cross.at(i, j), wl_subtree_kernel(rows[i], cols[j], 2));
    }
  }
}

TEST(WlOa, DepthZeroIsMinimumOfSizes) {
  WlFeaturizer featurizer(0);
  const auto a = featurizer.transform(path_graph(4), {});
  const auto b = featurizer.transform(cycle_graph(6), {});
  EXPECT_DOUBLE_EQ(wl_oa_kernel(a, b, 0), 4.0);
}

TEST(WlOa, SelfKernelIsVertexCountTimesDepths) {
  // Histogram intersection of a graph with itself is |V| per depth.
  WlFeaturizer featurizer(3);
  const auto a = featurizer.transform(path_graph(5), {});
  EXPECT_DOUBLE_EQ(wl_oa_kernel(a, a, 3), 4.0 * 5.0);
}

TEST(WlOa, BoundedByMinVertexCountPerDepth) {
  WlFeaturizer featurizer(3);
  const auto features = featurizer.transform(fixture_graphs());
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      const double bound = 4.0 * static_cast<double>(std::min(features[i].num_vertices(),
                                                              features[j].num_vertices()));
      EXPECT_LE(wl_oa_kernel(features[i], features[j], 3), bound + 1e-12);
    }
  }
}

TEST(WlOa, SymmetricAndMonotoneInDepth) {
  WlFeaturizer featurizer(3);
  const auto features = featurizer.transform(fixture_graphs());
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = i; j < features.size(); ++j) {
      double previous = 0.0;
      for (std::size_t depth = 0; depth <= 3; ++depth) {
        const double k = wl_oa_kernel(features[i], features[j], depth);
        EXPECT_DOUBLE_EQ(k, wl_oa_kernel(features[j], features[i], depth));
        EXPECT_GE(k, previous);
        previous = k;
      }
    }
  }
}

TEST(WlOa, BatchGramsMatchSingleDepthGrams) {
  WlFeaturizer featurizer(2);
  const auto features = featurizer.transform(fixture_graphs());
  const auto batch = wl_oa_grams(features, 2);
  for (std::size_t depth = 0; depth <= 2; ++depth) {
    const auto single = wl_oa_gram(features, depth);
    for (std::size_t i = 0; i < features.size(); ++i) {
      for (std::size_t j = 0; j < features.size(); ++j) {
        EXPECT_DOUBLE_EQ(batch[depth].at(i, j), single.at(i, j));
      }
    }
  }
}

TEST(KernelMatrix, CosineNormalizeMakesUnitDiagonal) {
  WlFeaturizer featurizer(2);
  const auto features = featurizer.transform(fixture_graphs());
  auto gram = wl_subtree_gram(features, 2);
  const auto diagonal = cosine_normalize(gram);
  EXPECT_EQ(diagonal.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_NEAR(gram.at(i, i), 1.0, 1e-12);
    for (std::size_t j = 0; j < features.size(); ++j) {
      EXPECT_LE(std::abs(gram.at(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(KernelMatrix, CrossNormalizationConsistentWithSquare) {
  WlFeaturizer featurizer(2);
  const auto features = featurizer.transform(fixture_graphs());
  auto gram = wl_subtree_gram(features, 2);
  const auto diagonal = cosine_normalize(gram);

  // Normalizing the "cross" block of the same features against the stored
  // diagonal must reproduce the normalized square Gram.
  auto cross = wl_subtree_cross(features, features, 2);
  std::vector<double> self(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    self[i] = wl_subtree_kernel(features[i], features[i], 2);
  }
  cosine_normalize_cross(cross, self, diagonal);
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      EXPECT_NEAR(cross.at(i, j), gram.at(i, j), 1e-12);
    }
  }
}

TEST(KernelMatrix, ValidatesShapes) {
  DenseMatrix rect(2, 3);
  EXPECT_THROW((void)cosine_normalize(rect), std::invalid_argument);
  EXPECT_THROW((void)max_asymmetry(rect), std::invalid_argument);
  EXPECT_THROW((void)rect.at(5, 0), std::out_of_range);
  EXPECT_THROW((void)rect.row(5), std::out_of_range);
}

}  // namespace
