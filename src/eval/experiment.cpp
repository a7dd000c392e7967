#include "eval/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/runtime.hpp"
#include "data/synthetic.hpp"

namespace graphhd::eval {

ExperimentConfig config_from_env(double default_scale, std::size_t default_reps,
                                 std::size_t default_epochs) {
  ExperimentConfig config;
  config.dataset_scale = core::runtime::env_double("GRAPHHD_BENCH_SCALE", default_scale);
  if (config.dataset_scale <= 0.0 || config.dataset_scale > 1.0) {
    throw std::runtime_error("GRAPHHD_BENCH_SCALE must be in (0, 1]");
  }
  config.cv.repetitions = core::runtime::env_size("GRAPHHD_REPS", default_reps);
  config.gin_max_epochs = core::runtime::env_size("GRAPHHD_GIN_EPOCHS", default_epochs);
  return config;
}

std::vector<CvResult> run_figure3(
    const ExperimentConfig& config,
    const std::vector<std::pair<std::string, ClassifierFactory>>& methods) {
  std::vector<CvResult> results;
  results.reserve(config.datasets.size() * methods.size());
  for (const std::string& dataset_name : config.datasets) {
    // Scaling floor: keep at least ~120 graphs per replica so the small
    // benchmarks (MUTAG, PTC_FM) stay statistically meaningful even at
    // aggressive GRAPHHD_BENCH_SCALE values — they are cheap anyway.
    const auto& spec = data::spec_by_name(dataset_name);
    const double floor_scale =
        std::min(1.0, 120.0 / static_cast<double>(spec.graphs));
    const double scale = std::max(config.dataset_scale, floor_scale);
    const auto dataset =
        data::load_or_synthesize(config.data_dir, dataset_name, config.data_seed, scale);
    for (const auto& [method_name, factory] : methods) {
      std::fprintf(stderr, "[fig3] %-10s x %-8s (%zu graphs)...\n", dataset_name.c_str(),
                   method_name.c_str(), dataset.size());
      results.push_back(cross_validate(method_name, factory, dataset, config.cv));
    }
  }
  return results;
}

CvResult run_graphhd_stream_cv(data::GraphStream& stream, const std::string& dataset_name,
                               const ExperimentConfig& config,
                               const core::GraphHdConfig& hd_config) {
  std::fprintf(stderr, "[eval-stream] %-10s x GraphHD (%zu folds x %zu reps, chunk %zu)...\n",
               dataset_name.c_str(), config.cv.folds, config.cv.repetitions,
               config.cv.stream.chunk);
  return cross_validate_stream("GraphHD", make_graphhd_stream_factory(hd_config), stream,
                               dataset_name, config.cv);
}

std::vector<ScalabilityPoint> run_figure4(const ExperimentConfig& config,
                                          const std::vector<std::size_t>& sizes) {
  // The paper compares GraphHD against one GNN and one kernel method:
  // GIN-ε and WL-OA, same hyperparameters as Fig. 3.
  nn::GinTrainConfig gin_training;
  gin_training.max_epochs = config.gin_max_epochs;
  std::vector<std::pair<std::string, ClassifierFactory>> methods;
  methods.emplace_back("GraphHD", make_graphhd_factory());
  methods.emplace_back("GIN-e", make_gin_factory(false, {}, gin_training));
  methods.emplace_back("WL-OA", make_kernel_svm_factory(KernelKind::kWlOa));

  std::vector<ScalabilityPoint> points;
  for (const std::size_t n : sizes) {
    data::ScalabilityConfig dataset_config;
    dataset_config.num_vertices = n;
    const auto dataset = data::make_scalability_dataset(dataset_config, config.data_seed);
    for (const auto& [method_name, factory] : methods) {
      std::fprintf(stderr, "[fig4] n=%-5zu x %-8s...\n", n, method_name.c_str());
      const auto cv = cross_validate(method_name, factory, dataset, config.cv);
      ScalabilityPoint point;
      point.num_vertices = n;
      point.method = method_name;
      point.train_seconds_per_fold = cv.train_seconds_per_fold();
      point.accuracy = cv.accuracy().mean;
      points.push_back(point);
    }
  }
  return points;
}

}  // namespace graphhd::eval
