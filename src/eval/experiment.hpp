/// \file experiment.hpp
/// Orchestration of the paper's experiments (Fig. 3 and Fig. 4) and the
/// environment knobs shared by all benchmark binaries.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/scalability.hpp"
#include "eval/baselines.hpp"
#include "eval/cross_validation.hpp"

namespace graphhd::eval {

/// Shared settings for the figure-level experiments.
struct ExperimentConfig {
  std::vector<std::string> datasets = {"DD",   "ENZYMES",  "MUTAG",
                                       "NCI1", "PROTEINS", "PTC_FM"};
  CvConfig cv;                   ///< folds / repetitions / seed.
  double dataset_scale = 1.0;    ///< synthetic-replica size scale (see below).
  std::size_t gin_max_epochs = 100;
  std::uint64_t data_seed = 0xda7a5eedULL;
  std::string data_dir = "data";  ///< real TUDataset files are looked up here.
};

/// Reads the benchmark environment knobs:
///   GRAPHHD_BENCH_SCALE  (0, 1]  dataset-size scale, default `default_scale`;
///   GRAPHHD_REPS         >= 1    CV repetitions, default `default_reps`;
///   GRAPHHD_GIN_EPOCHS   >= 1    GIN max epochs, default `default_epochs`.
/// The defaults keep every bench binary within a few minutes; setting
/// GRAPHHD_BENCH_SCALE=1 GRAPHHD_REPS=3 reproduces the paper's full protocol.
[[nodiscard]] ExperimentConfig config_from_env(double default_scale = 0.15,
                                               std::size_t default_reps = 1,
                                               std::size_t default_epochs = 30);

/// Runs the Fig. 3 experiment: every method of `methods` on every dataset.
/// Results are ordered dataset-major, method-minor.  Progress lines go to
/// stderr so stdout stays machine-readable.
[[nodiscard]] std::vector<CvResult> run_figure3(
    const ExperimentConfig& config,
    const std::vector<std::pair<std::string, ClassifierFactory>>& methods);

/// Runs the CV protocol for GraphHD over a GraphStream through
/// cross_validate_stream — the streaming counterpart of one fig-3 cell,
/// shared by `graphhd_cli eval --stream` and bench/stress_eval.  Uses
/// config.cv (folds / repetitions / seed / stream / stratified).
[[nodiscard]] CvResult run_graphhd_stream_cv(data::GraphStream& stream,
                                             const std::string& dataset_name,
                                             const ExperimentConfig& config,
                                             const core::GraphHdConfig& hd_config = {});

/// One point of the Fig. 4 scaling curve.
struct ScalabilityPoint {
  std::size_t num_vertices = 0;
  std::string method;
  double train_seconds_per_fold = 0.0;
  double accuracy = 0.0;
};

/// Runs the Fig. 4 experiment: GraphHD vs GIN-ε vs WL-OA on Erdős–Rényi
/// datasets of growing graph size (paper: p=0.05, 100 graphs, 2 classes).
[[nodiscard]] std::vector<ScalabilityPoint> run_figure4(
    const ExperimentConfig& config, const std::vector<std::size_t>& sizes);

}  // namespace graphhd::eval
