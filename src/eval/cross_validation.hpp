/// \file cross_validation.hpp
/// The paper's evaluation protocol: repeated stratified 10-fold CV with
/// separate wall-clock timing of training and inference.
///
/// Section V-A: "We use 10-fold cross validation ... We report training and
/// inference time per graph to normalize over varying dataset lengths.  The
/// wall-time for one fold of training is considered the training time.  The
/// inference time is set to be the testing wall-time of one fold.
/// Measurements are averaged over 3 repetitions of 10-fold cross
/// validation."

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "data/dataset.hpp"
#include "data/stream.hpp"
#include "eval/classifier.hpp"
#include "hdc/random.hpp"
#include "ml/metrics.hpp"

namespace graphhd::eval {

/// Protocol settings (defaults = the paper's protocol).
struct CvConfig {
  std::size_t folds = 10;
  std::size_t repetitions = 3;
  std::uint64_t seed = 0xf01d5ULL;

  /// Stratified fold assignment (the paper's protocol).  When off, folds are
  /// one globally shuffled round-robin deal — class proportions per fold are
  /// not preserved.  Both modes are shared bit-exactly by cross_validate and
  /// cross_validate_stream.
  bool stratified = true;

  /// Options of the per-fold train/test streams in cross_validate_stream
  /// (chunk size, prefetch); ignored by the materialized protocol.  Any
  /// chunk yields identical results (chunking is invisible to the pipeline)
  /// — the knobs trade pull overhead against peak memory.
  core::StreamOptions stream{};

  /// Record every fold's predicted labels in FoldResult::predictions (test
  /// samples in ascending dataset/stream order).  Off by default: the
  /// paper's protocol only needs accuracies, and figure runs keep results
  /// small.
  bool record_predictions = false;

  /// Run the (repetition, fold) jobs in parallel over the process-wide
  /// thread pool.  Accuracy results are identical to the serial protocol
  /// (splits are drawn serially, every fold is independently seeded); only
  /// the per-fold wall-clock *timings* are affected by core contention, so
  /// the paper's timing harnesses (fig3/fig4) leave this off.  When set, the
  /// ClassifierFactory is invoked concurrently from pool workers — it (and
  /// the classifiers it returns) must not share unsynchronized mutable state
  /// across calls.  Rejected by cross_validate_stream (its folds replay one
  /// shared stream and must run serially).
  bool parallel_folds = false;
};

/// Result of one (repetition, fold).
struct FoldResult {
  double accuracy = 0.0;
  double train_seconds = 0.0;   ///< wall time of fit() on the fold.
  double test_seconds = 0.0;    ///< wall time of predict() on the fold.
  std::size_t train_size = 0;
  std::size_t test_size = 0;
  /// Predicted labels of the fold's test samples (ascending dataset/stream
  /// order); filled only when CvConfig::record_predictions is set.
  std::vector<std::size_t> predictions;
};

/// Aggregated cross-validation outcome for one (method, dataset) pair.
struct CvResult {
  std::string method;
  std::string dataset;
  std::vector<FoldResult> folds;  ///< repetitions x folds entries.

  [[nodiscard]] ml::MeanStd accuracy() const;
  /// Mean wall time of one fold of training — the paper's "training time".
  [[nodiscard]] double train_seconds_per_fold() const;
  /// Mean training time divided by the fold's training-set size.
  [[nodiscard]] double train_seconds_per_graph() const;
  /// Mean inference time per graph — the paper's "inference time".
  [[nodiscard]] double inference_seconds_per_graph() const;
};

/// Runs the full protocol for one method on one dataset.
[[nodiscard]] CvResult cross_validate(const std::string& method_name,
                                      const ClassifierFactory& factory,
                                      const data::GraphDataset& dataset, const CvConfig& config);

/// Fold membership for one repetition of the k-fold protocol, computed from
/// the label column alone — pass 1 of the streaming protocol plans folds
/// from a label scan (data::collect_labels) without ever materializing
/// graphs.  O(num_samples) memory regardless of graph sizes.
struct FoldPlan {
  std::size_t folds = 0;
  std::vector<std::size_t> labels;   ///< per-sample labels, stream order.
  std::vector<std::size_t> fold_of;  ///< per-sample fold id, stream order.

  [[nodiscard]] std::size_t size() const noexcept { return fold_of.size(); }

  /// Membership mask of fold `fold`'s training (respectively test) side, as
  /// FilteredStream consumes it.
  [[nodiscard]] std::vector<bool> train_mask(std::size_t fold) const;
  [[nodiscard]] std::vector<bool> test_mask(std::size_t fold) const;

  /// Labels of fold `fold`'s test samples (ascending stream order) — the
  /// ground truth streamed predictions are scored against.
  [[nodiscard]] std::vector<std::size_t> test_labels(std::size_t fold) const;

  /// Class count of fold `fold`'s training subset (max kept label + 1),
  /// matching data::GraphDataset::num_classes() of the materialized subset —
  /// required for streamed models to be shaped identically to materialized
  /// ones.
  [[nodiscard]] std::size_t train_num_classes(std::size_t fold) const;
};

/// Plans one repetition's folds from a label column.  Both this and
/// cross_validate assign folds with data::kfold_assignment, so for the same
/// rng state the assignment is bit-identical — the cornerstone of the
/// streamed-equals-materialized guarantee.
[[nodiscard]] FoldPlan make_fold_plan(std::vector<std::size_t> labels, std::size_t num_classes,
                                      std::size_t folds, bool stratified, hdc::Rng& rng);

/// Runs the full protocol for one method over a GraphStream without ever
/// materializing the dataset: pass 1 scans the stream for labels (cheap for
/// every source with a label fast path), then each (repetition, fold) trains
/// and tests through data::FilteredStream replays feeding the classifier's
/// fit_stream/predict_stream.  Peak memory is O(num_samples + one chunk of
/// graphs), so the protocol runs on workloads the materialized
/// cross_validate cannot hold.
///
/// For classifiers whose streamed pipeline is bit-identical to their
/// materialized one (make_graphhd_stream_factory), the predictions and
/// per-fold accuracies are bit-identical to cross_validate on the
/// materialized stream for the same config.seed — at any chunk size, thread
/// count, kernel variant and backend (tests/test_eval_stream.cpp,
/// bench/stress_eval.cpp).  Fold timings include the source's own
/// generation/IO cost (inherent to streaming).
///
/// `dataset_name` labels the CvResult (streams carry no name).  Throws on
/// config.parallel_folds (folds share one stream) and on folds exceeding
/// the stream's sample count.
[[nodiscard]] CvResult cross_validate_stream(const std::string& method_name,
                                             const StreamingClassifierFactory& factory,
                                             data::GraphStream& stream,
                                             const std::string& dataset_name,
                                             const CvConfig& config);

}  // namespace graphhd::eval
