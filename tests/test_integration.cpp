/// End-to-end integration tests: synthetic replicas through the full
/// five-method evaluation harness, checking the *shapes* the paper claims
/// (GraphHD fastest to train, all methods above chance) on miniature runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "data/scalability.hpp"
#include "data/synthetic.hpp"
#include "eval/baselines.hpp"
#include "eval/cross_validation.hpp"
#include "eval/experiment.hpp"
#include "eval/report.hpp"

namespace {

using namespace graphhd::eval;
using graphhd::data::GraphDataset;
namespace core = graphhd::core;
namespace nn = graphhd::nn;

core::GraphHdConfig fast_hd_config() {
  core::GraphHdConfig config;
  config.dimension = 4096;
  return config;
}

CvConfig mini_cv() {
  CvConfig config;
  config.folds = 3;
  config.repetitions = 1;
  return config;
}

TEST(Integration, GraphHdLearnsTheMiniReplicas) {
  // Per-dataset floor is loose because two replicas (PTC_FM, and to a
  // lesser degree MUTAG) sit near chance by design — as they do in the
  // paper's Fig. 3; the aggregate bound is the real signal check.
  double accuracy_sum = 0.0;
  double chance_sum = 0.0;
  for (const auto& spec : graphhd::data::table1_specs()) {
    // Keep at least ~90 graphs per replica: class prototypes bundled from a
    // handful of samples are dominated by sampling noise on the harder
    // chemistry-like replicas.
    const double scale =
        std::max(0.06, 90.0 / static_cast<double>(spec.graphs));
    const auto dataset = graphhd::data::make_synthetic_replica(spec, 42, scale);
    const auto result = cross_validate("GraphHD", make_graphhd_factory(fast_hd_config()),
                                       dataset, mini_cv());
    const double chance = dataset.majority_class_fraction();
    EXPECT_GT(result.accuracy().mean, chance - 0.12)
        << spec.name << ": GraphHD far below the majority-class baseline";
    accuracy_sum += result.accuracy().mean;
    chance_sum += chance;
  }
  // Averaged over the six replicas GraphHD must clearly beat chance.
  EXPECT_GT(accuracy_sum / 6.0, chance_sum / 6.0 + 0.10);
}

TEST(Integration, AllFiveMethodsRunOnMiniMutag) {
  const auto dataset = graphhd::data::make_synthetic_replica("MUTAG", 7, 0.5);

  nn::GinTrainConfig gin_training;
  gin_training.max_epochs = 40;
  gin_training.batch_size = 32;
  std::vector<std::pair<std::string, ClassifierFactory>> methods;
  methods.emplace_back("GraphHD", make_graphhd_factory(fast_hd_config()));
  methods.emplace_back("1-WL", make_kernel_svm_factory(KernelKind::kWlSubtree, 3));
  methods.emplace_back("WL-OA", make_kernel_svm_factory(KernelKind::kWlOa, 3));
  methods.emplace_back("GIN-e", make_gin_factory(false, {}, gin_training));
  methods.emplace_back("GIN-e-JK", make_gin_factory(true, {}, gin_training));

  std::vector<CvResult> results;
  for (const auto& [name, factory] : methods) {
    results.push_back(cross_validate(name, factory, dataset, mini_cv()));
  }
  // Every method produces sane predictions on every fold and learns at
  // least weak signal (the replica classes differ in ring count, a subtle
  // cue at this dataset size; the strong accuracy/timing claims are covered
  // by the full-size bench harnesses, not this smoke test).
  for (const auto& result : results) {
    EXPECT_EQ(result.folds.size(), mini_cv().folds) << result.method;
    EXPECT_GT(result.accuracy().mean, 0.45) << result.method;
    EXPECT_GT(result.train_seconds_per_fold(), 0.0) << result.method;
    EXPECT_GT(result.inference_seconds_per_graph(), 0.0) << result.method;
  }
}

TEST(Integration, ScalabilityShapeGraphHdFasterThanGnnAndFlatterThanKernel) {
  // Fig. 4 shape invariants at mini scale (the full curve is regenerated by
  // bench/fig4_scalability):
  //   1. GraphHD trains faster than GIN-ε and than WL-OA at the larger graph
  //      size — the figure's claim (the paper quotes 15.0x over WL-OA at
  //      980 vertices);
  //   2. GraphHD's single encode pass is linear in |E|: its train time grows
  //      no faster than the datasets' total edge count (1.5x slack against
  //      timer noise).  The kernel's WL refinement + Gram work grows
  //      superlinearly instead.
  CvConfig cv = mini_cv();

  const auto dataset_for = [](std::size_t n) {
    graphhd::data::ScalabilityConfig config;
    config.num_vertices = n;
    config.num_graphs = 60;
    return graphhd::data::make_scalability_dataset(config, 3);
  };
  const GraphDataset small = dataset_for(100);
  const GraphDataset large = dataset_for(600);
  const auto total_edges = [](const GraphDataset& dataset) {
    double edges = 0.0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      edges += static_cast<double>(dataset.graph(i).num_edges());
    }
    return edges;
  };
  const auto time_on = [&](const std::string& method, const ClassifierFactory& factory,
                           const GraphDataset& dataset) {
    return cross_validate(method, factory, dataset, cv).train_seconds_per_fold();
  };

  nn::GinTrainConfig gin_training;
  gin_training.max_epochs = 25;
  const auto hd_factory = make_graphhd_factory();  // paper config, d = 10,000
  const auto oa_factory = make_kernel_svm_factory(KernelKind::kWlOa, 5);
  const auto gin_factory = make_gin_factory(false, {}, gin_training);

  const double hd_small = time_on("GraphHD", hd_factory, small);
  const double hd_large = time_on("GraphHD", hd_factory, large);
  const double oa_small = time_on("WL-OA", oa_factory, small);
  const double oa_large = time_on("WL-OA", oa_factory, large);
  const double gin_large = time_on("GIN-e", gin_factory, large);
  const double edge_growth = total_edges(large) / total_edges(small);

  EXPECT_LT(hd_large, gin_large) << "GraphHD must out-train the GNN at n=600";
  EXPECT_LT(hd_large, oa_large) << "GraphHD must out-train WL-OA at n=600 (" << hd_large
                                << " s vs " << oa_large << " s per fold)";
  EXPECT_LT(hd_large / hd_small, 1.5 * edge_growth)
      << "GraphHD's train time must grow no faster than |E| (time x" << hd_large / hd_small
      << ", edges x" << edge_growth << "; WL-OA x" << oa_large / oa_small << ")";
}

TEST(Integration, ExperimentConfigReadsEnvironment) {
  ::setenv("GRAPHHD_BENCH_SCALE", "0.5", 1);
  ::setenv("GRAPHHD_REPS", "2", 1);
  ::setenv("GRAPHHD_GIN_EPOCHS", "7", 1);
  const auto config = config_from_env();
  EXPECT_DOUBLE_EQ(config.dataset_scale, 0.5);
  EXPECT_EQ(config.cv.repetitions, 2u);
  EXPECT_EQ(config.gin_max_epochs, 7u);
  ::unsetenv("GRAPHHD_BENCH_SCALE");
  ::unsetenv("GRAPHHD_REPS");
  ::unsetenv("GRAPHHD_GIN_EPOCHS");
  const auto defaults = config_from_env(0.2, 1, 5);
  EXPECT_DOUBLE_EQ(defaults.dataset_scale, 0.2);
  EXPECT_EQ(defaults.cv.repetitions, 1u);
  EXPECT_EQ(defaults.gin_max_epochs, 5u);
}

TEST(Integration, Figure4HarnessProducesAllSeries) {
  ExperimentConfig config;
  config.cv.folds = 2;
  config.cv.repetitions = 1;
  config.gin_max_epochs = 3;
  const auto points = run_figure4(config, {20, 40});
  ASSERT_EQ(points.size(), 6u);  // 2 sizes x 3 methods
  for (const auto& point : points) {
    EXPECT_GT(point.train_seconds_per_fold, 0.0);
  }
  const auto table = format_figure4(points);
  EXPECT_NE(table.find("20"), std::string::npos);
  EXPECT_NE(table.find("WL-OA"), std::string::npos);
}

TEST(Integration, NoiseRobustnessOfGraphHdPredictions) {
  // The HDC robustness claim: flipping a moderate fraction of the query
  // hypervector's components rarely changes the prediction.
  const auto dataset = graphhd::data::make_synthetic_replica("MUTAG", 11, 0.2);
  core::GraphHdModel model(fast_hd_config(), dataset.num_classes());
  model.fit(dataset);

  graphhd::hdc::Rng rng(5);
  std::size_t stable = 0, total = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(dataset.size(), 20); ++i) {
    const auto encoded = model.encoder().encode_packed(dataset.graph(i));
    const auto clean = model.predict_encoded(encoded).label;
    const auto noisy =
        model.predict_encoded(encoded.with_noise(encoded.dimension() / 10, rng)).label;
    stable += clean == noisy ? 1 : 0;
    ++total;
  }
  EXPECT_GE(static_cast<double>(stable) / static_cast<double>(total), 0.9);
}

}  // namespace
