#include "eval/baselines.hpp"

#include <stdexcept>
#include <utility>

#include "kernels/wl_oa.hpp"
#include "kernels/wl_subtree.hpp"

namespace graphhd::eval {

namespace {

using data::GraphDataset;
using kernels::DenseMatrix;
using kernels::WlFeatures;
using kernels::WlFeaturizer;

/// GraphHD through the common interface.
class GraphHdClassifier final : public GraphClassifier {
 public:
  explicit GraphHdClassifier(core::GraphHdConfig config) : classifier_(config) {}

  [[nodiscard]] std::string name() const override { return "GraphHD"; }

  void fit(const GraphDataset& train) override { classifier_.fit(train); }

  [[nodiscard]] std::vector<std::size_t> predict(const GraphDataset& test) override {
    return classifier_.predict_batch(test);
  }

 private:
  core::GraphHd classifier_;
};

/// Streaming GraphHD through the streaming interface (same facade as
/// GraphHdClassifier — only the ingestion path differs).
class GraphHdStreamClassifier final : public StreamingGraphClassifier {
 public:
  explicit GraphHdStreamClassifier(core::GraphHdConfig config) : classifier_(config) {}

  [[nodiscard]] std::string name() const override { return "GraphHD"; }

  void fit_stream(data::GraphStream& train, const core::StreamOptions& options) override {
    classifier_.fit_stream(train, core::as_train_options(options));
  }

  [[nodiscard]] std::vector<std::size_t> predict_stream(
      data::GraphStream& test, const core::StreamOptions& options) override {
    return classifier_.predict_stream(test, options);
  }

 private:
  core::GraphHd classifier_;
};

/// WL-subtree / WL-OA kernel + one-vs-one SVM with the paper's inner-CV
/// hyperparameter selection.  The WL palette learned on the training fold is
/// reused (and extended) when featurizing test graphs, so unseen test
/// structures contribute zero kernel mass against training graphs — the
/// standard WL-kernel semantics.
class KernelSvmClassifier final : public GraphClassifier {
 public:
  KernelSvmClassifier(KernelKind kind, std::size_t max_wl_iterations,
                      ml::KernelGridConfig grid, std::uint64_t seed)
      : kind_(kind), max_wl_iterations_(max_wl_iterations), grid_(std::move(grid)) {
    grid_.seed = seed;
  }

  [[nodiscard]] std::string name() const override {
    return kind_ == KernelKind::kWlSubtree ? "1-WL" : "WL-OA";
  }

  void fit(const GraphDataset& train) override {
    featurizer_.emplace(max_wl_iterations_);
    train_features_ = featurizer_->transform(train.graphs());

    // One normalized Gram per candidate depth (computed in a single pass
    // over the pairs); the grid search scores every (depth, C) cell with
    // inner CV, exactly the paper's protocol.
    std::vector<DenseMatrix> grams =
        kind_ == KernelKind::kWlSubtree
            ? kernels::wl_subtree_grams(train_features_, max_wl_iterations_)
            : kernels::wl_oa_grams(train_features_, max_wl_iterations_);
    train_diagonals_.clear();
    for (DenseMatrix& gram : grams) {
      train_diagonals_.push_back(kernels::cosine_normalize(gram));
    }
    const auto selection = ml::select_kernel_hyperparameters(grams, train.labels(), grid_);
    best_depth_ = selection.best_depth;

    ml::SvmConfig svm_config = grid_.svm;
    svm_config.C = selection.best_c;
    machine_.emplace(grams[best_depth_], train.labels(), svm_config);
  }

  [[nodiscard]] std::vector<std::size_t> predict(const GraphDataset& test) override {
    if (!machine_.has_value()) {
      throw std::logic_error("KernelSvmClassifier: fit() must be called before predict()");
    }
    const auto test_features = featurizer_->transform(test.graphs());
    DenseMatrix cross = kind_ == KernelKind::kWlSubtree
                            ? kernels::wl_subtree_cross(test_features, train_features_, best_depth_)
                            : kernels::wl_oa_cross(test_features, train_features_, best_depth_);
    std::vector<double> test_self(test_features.size());
    for (std::size_t t = 0; t < test_features.size(); ++t) {
      test_self[t] = kind_ == KernelKind::kWlSubtree
                         ? kernels::wl_subtree_kernel(test_features[t], test_features[t],
                                                      best_depth_)
                         : kernels::wl_oa_kernel(test_features[t], test_features[t], best_depth_);
    }
    kernels::cosine_normalize_cross(cross, test_self, train_diagonals_[best_depth_]);
    return machine_->predict(cross);
  }

 private:
  KernelKind kind_;
  std::size_t max_wl_iterations_;
  ml::KernelGridConfig grid_;
  std::optional<WlFeaturizer> featurizer_;
  std::vector<WlFeatures> train_features_;
  std::vector<std::vector<double>> train_diagonals_;  ///< pre-normalization diag per depth.
  std::size_t best_depth_ = 0;
  std::optional<ml::OneVsOneSvm> machine_;
};

/// GIN-ε / GIN-ε-JK through the common interface.
class GinClassifier final : public GraphClassifier {
 public:
  GinClassifier(nn::GinConfig architecture, nn::GinTrainConfig training, std::uint64_t seed)
      : architecture_(architecture), training_(training) {
    architecture_.seed = hdc::derive_seed(seed, "gin-weights");
    training_.seed = hdc::derive_seed(seed, "gin-batches");
  }

  [[nodiscard]] std::string name() const override {
    return architecture_.jumping_knowledge ? "GIN-e-JK" : "GIN-e";
  }

  void fit(const GraphDataset& train) override {
    architecture_.num_classes = std::max<std::size_t>(2, train.num_classes());
    network_.emplace(architecture_);
    (void)nn::train_gin(*network_, train, training_);
  }

  [[nodiscard]] std::vector<std::size_t> predict(const GraphDataset& test) override {
    if (!network_.has_value()) {
      throw std::logic_error("GinClassifier: fit() must be called before predict()");
    }
    std::vector<std::size_t> predictions;
    predictions.reserve(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
      predictions.push_back(network_->predict(test.graph(i)));
    }
    return predictions;
  }

 private:
  nn::GinConfig architecture_;
  nn::GinTrainConfig training_;
  std::optional<nn::GinNetwork> network_;
};

}  // namespace

ClassifierFactory make_graphhd_factory(const core::GraphHdConfig& config) {
  return [config](std::uint64_t seed) -> std::unique_ptr<GraphClassifier> {
    core::GraphHdConfig fold_config = config;
    fold_config.seed = hdc::derive_seed(config.seed, seed);
    return std::make_unique<GraphHdClassifier>(fold_config);
  };
}

StreamingClassifierFactory make_graphhd_stream_factory(const core::GraphHdConfig& config) {
  return [config](std::uint64_t seed) -> std::unique_ptr<StreamingGraphClassifier> {
    // Same per-fold seed mixing as make_graphhd_factory — a requirement of
    // the streamed-equals-materialized CV guarantee, not a style choice.
    core::GraphHdConfig fold_config = config;
    fold_config.seed = hdc::derive_seed(config.seed, seed);
    return std::make_unique<GraphHdStreamClassifier>(fold_config);
  };
}

ClassifierFactory make_kernel_svm_factory(KernelKind kind, std::size_t max_wl_iterations,
                                          ml::KernelGridConfig grid) {
  return [kind, max_wl_iterations, grid](std::uint64_t seed) -> std::unique_ptr<GraphClassifier> {
    return std::make_unique<KernelSvmClassifier>(kind, max_wl_iterations, grid, seed);
  };
}

ClassifierFactory make_gin_factory(bool jumping_knowledge, nn::GinConfig architecture,
                                   nn::GinTrainConfig training) {
  architecture.jumping_knowledge = jumping_knowledge;
  return [architecture, training](std::uint64_t seed) -> std::unique_ptr<GraphClassifier> {
    return std::make_unique<GinClassifier>(architecture, training, seed);
  };
}

std::vector<std::pair<std::string, ClassifierFactory>> paper_method_suite(
    std::size_t gin_max_epochs) {
  nn::GinTrainConfig gin_training;
  gin_training.max_epochs = gin_max_epochs;
  std::vector<std::pair<std::string, ClassifierFactory>> suite;
  suite.emplace_back("GraphHD", make_graphhd_factory());
  suite.emplace_back("1-WL", make_kernel_svm_factory(KernelKind::kWlSubtree));
  suite.emplace_back("WL-OA", make_kernel_svm_factory(KernelKind::kWlOa));
  suite.emplace_back("GIN-e", make_gin_factory(false, {}, gin_training));
  suite.emplace_back("GIN-e-JK", make_gin_factory(true, {}, gin_training));
  return suite;
}

}  // namespace graphhd::eval
