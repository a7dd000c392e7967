/// \file baselines.hpp
/// Factories for the five methods compared in the paper:
/// GraphHD, the kernel baselines (1-WL, WL-OA) with SVMs, and the GNN
/// baselines (GIN-ε, GIN-ε-JK).

#pragma once

#include "core/pipeline.hpp"
#include "eval/classifier.hpp"
#include "ml/grid_search.hpp"
#include "nn/trainer.hpp"

namespace graphhd::eval {

/// Which WL-family kernel a kernel classifier uses.
enum class KernelKind {
  kWlSubtree,  ///< 1-WL subtree kernel (Shervashidze et al.).
  kWlOa,       ///< WL optimal assignment kernel (Kriege et al.).
};

/// GraphHD with the given base config (the per-fold seed is mixed into
/// config.seed).
[[nodiscard]] ClassifierFactory make_graphhd_factory(const core::GraphHdConfig& config = {});

/// Streaming GraphHD for cross_validate_stream: identical config/seed
/// handling to make_graphhd_factory, but each classifier trains and predicts
/// through the GraphHd facade's fit_stream/predict_stream — which are
/// bit-identical to fit/predict_batch, so the two factories produce the same
/// predictions for the same per-fold seed.
[[nodiscard]] StreamingClassifierFactory make_graphhd_stream_factory(
    const core::GraphHdConfig& config = {});

/// Kernel + one-vs-one SVM with the paper's hyperparameter protocol:
/// WL depth from {0..max_wl_iterations}, C from grid.c_grid, chosen by inner
/// CV on the training fold; Gram matrices are cosine-normalized.
[[nodiscard]] ClassifierFactory make_kernel_svm_factory(KernelKind kind,
                                                        std::size_t max_wl_iterations = 5,
                                                        ml::KernelGridConfig grid = {});

/// GIN-ε (jumping_knowledge=false) or GIN-ε-JK (true) with the paper's
/// training protocol.
[[nodiscard]] ClassifierFactory make_gin_factory(bool jumping_knowledge,
                                                 nn::GinConfig architecture = {},
                                                 nn::GinTrainConfig training = {});

/// All five paper methods in presentation order:
/// {GraphHD, 1-WL, WL-OA, GIN-e, GIN-e-JK}.  `gin_max_epochs` caps GNN
/// training (the dominant cost of a full Fig. 3 run).
[[nodiscard]] std::vector<std::pair<std::string, ClassifierFactory>> paper_method_suite(
    std::size_t gin_max_epochs = 100);

}  // namespace graphhd::eval
