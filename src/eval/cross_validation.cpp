#include "eval/cross_validation.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace graphhd::eval {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ml::MeanStd CvResult::accuracy() const {
  std::vector<double> values;
  values.reserve(folds.size());
  for (const FoldResult& fold : folds) values.push_back(fold.accuracy);
  return ml::mean_std(values);
}

double CvResult::train_seconds_per_fold() const {
  if (folds.empty()) return 0.0;
  double sum = 0.0;
  for (const FoldResult& fold : folds) sum += fold.train_seconds;
  return sum / static_cast<double>(folds.size());
}

double CvResult::train_seconds_per_graph() const {
  if (folds.empty()) return 0.0;
  double sum = 0.0;
  for (const FoldResult& fold : folds) {
    if (fold.train_size > 0) {
      sum += fold.train_seconds / static_cast<double>(fold.train_size);
    }
  }
  return sum / static_cast<double>(folds.size());
}

double CvResult::inference_seconds_per_graph() const {
  if (folds.empty()) return 0.0;
  double sum = 0.0;
  for (const FoldResult& fold : folds) {
    if (fold.test_size > 0) {
      sum += fold.test_seconds / static_cast<double>(fold.test_size);
    }
  }
  return sum / static_cast<double>(folds.size());
}

namespace {

/// Sample-count-independent protocol validation, shared by cross_validate
/// and cross_validate_stream — the streaming protocol runs it *before* the
/// label scan so a statically invalid config never costs a stream replay.
void validate_cv_protocol(const char* where, const CvConfig& config) {
  if (config.repetitions == 0) {
    throw std::invalid_argument(std::string(where) + ": need at least 1 repetition");
  }
  if (config.folds < 2) {
    throw std::invalid_argument(
        std::string(where) + ": config.folds must be >= 2 (got " +
        std::to_string(config.folds) + ") — k-fold cross-validation needs at least one "
        "held-out fold");
  }
}

void validate_cv_sample_count(const char* where, const CvConfig& config,
                              std::size_t num_samples) {
  if (config.folds > num_samples) {
    throw std::invalid_argument(
        std::string(where) + ": config.folds (" + std::to_string(config.folds) +
        ") exceeds the number of graphs (" + std::to_string(num_samples) +
        ") — every fold needs at least one test sample");
  }
}

}  // namespace

CvResult cross_validate(const std::string& method_name, const ClassifierFactory& factory,
                        const data::GraphDataset& dataset, const CvConfig& config) {
  validate_cv_protocol("cross_validate", config);
  validate_cv_sample_count("cross_validate", config, dataset.size());
  CvResult result;
  result.method = method_name;
  result.dataset = dataset.name();

  // Fold splits are drawn serially so the shuffles are identical to the
  // serial protocol no matter how the fold jobs are scheduled below.
  struct FoldJob {
    std::size_t rep = 0;
    std::size_t fold = 0;
    data::Split split;
  };
  std::vector<FoldJob> jobs;
  jobs.reserve(config.repetitions * config.folds);
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    hdc::Rng rng(hdc::derive_seed(config.seed, rep));
    const auto fold_of = data::kfold_assignment(dataset.labels(), dataset.num_classes(),
                                                config.folds, config.stratified, rng);
    auto splits = data::splits_from_assignment(fold_of, config.folds);
    for (std::size_t f = 0; f < splits.size(); ++f) {
      jobs.push_back({rep, f, std::move(splits[f])});
    }
  }

  // Folds are independent (each gets a fresh classifier from a per-fold
  // seed), so they run in parallel when config.parallel_folds is set.  The
  // per-fold timers still measure that fold's own fit/predict wall time —
  // under contention the *absolute* numbers inflate, which is why the
  // figure-level timing harnesses keep parallel_folds off.
  result.folds.assign(jobs.size(), FoldResult{});
  const auto run_job = [&](std::size_t j) {
    const FoldJob& job = jobs[j];
    const auto train_set = dataset.subset(job.split.train);
    const auto test_set = dataset.subset(job.split.test);
    auto classifier = factory(hdc::derive_seed(config.seed, job.rep * 1000 + job.fold));

    FoldResult fold;
    fold.train_size = train_set.size();
    fold.test_size = test_set.size();

    const auto train_start = Clock::now();
    classifier->fit(train_set);
    fold.train_seconds = seconds_since(train_start);

    const auto test_start = Clock::now();
    const auto predictions = classifier->predict(test_set);
    fold.test_seconds = seconds_since(test_start);

    fold.accuracy = ml::accuracy(predictions, test_set.labels());
    if (config.record_predictions) fold.predictions = predictions;
    result.folds[j] = fold;
  };
  if (config.parallel_folds) {
    parallel::parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
  }
  return result;
}

std::vector<bool> FoldPlan::train_mask(std::size_t fold) const {
  std::vector<bool> keep(fold_of.size());
  for (std::size_t i = 0; i < fold_of.size(); ++i) keep[i] = fold_of[i] != fold;
  return keep;
}

std::vector<bool> FoldPlan::test_mask(std::size_t fold) const {
  std::vector<bool> keep(fold_of.size());
  for (std::size_t i = 0; i < fold_of.size(); ++i) keep[i] = fold_of[i] == fold;
  return keep;
}

std::vector<std::size_t> FoldPlan::test_labels(std::size_t fold) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fold_of.size(); ++i) {
    if (fold_of[i] == fold) out.push_back(labels[i]);
  }
  return out;
}

std::size_t FoldPlan::train_num_classes(std::size_t fold) const {
  std::size_t num_classes = 0;
  for (std::size_t i = 0; i < fold_of.size(); ++i) {
    if (fold_of[i] != fold) num_classes = std::max(num_classes, labels[i] + 1);
  }
  return num_classes;
}

FoldPlan make_fold_plan(std::vector<std::size_t> labels, std::size_t num_classes,
                        std::size_t folds, bool stratified, hdc::Rng& rng) {
  FoldPlan plan;
  plan.folds = folds;
  plan.fold_of = data::kfold_assignment(labels, num_classes, folds, stratified, rng);
  plan.labels = std::move(labels);
  return plan;
}

CvResult cross_validate_stream(const std::string& method_name,
                               const StreamingClassifierFactory& factory,
                               data::GraphStream& stream, const std::string& dataset_name,
                               const CvConfig& config) {
  if (config.parallel_folds) {
    throw std::invalid_argument(
        "cross_validate_stream: parallel_folds is not supported — every fold replays the one "
        "shared stream, so folds must run serially (encoding inside each fold is still "
        "parallel)");
  }
  const core::StreamOptions& stream_options = config.stream;
  stream_options.validate("cross_validate_stream");
  validate_cv_protocol("cross_validate_stream", config);

  // Pass 1: label scan.  Labels are the one column the protocol must hold in
  // memory — fold assignment, stratification and scoring all need them.
  std::vector<std::size_t> labels = data::collect_labels(stream);
  validate_cv_sample_count("cross_validate_stream", config, labels.size());
  const std::size_t num_classes = stream.num_classes();

  CvResult result;
  result.method = method_name;
  result.dataset = dataset_name;
  result.folds.reserve(config.repetitions * config.folds);

  // Pass 2: per-(repetition, fold) filtered replays.  The fold assignment
  // consumes the rng exactly as cross_validate's split drawing does, and the
  // per-fold classifier seeds match job.rep * 1000 + job.fold — both are
  // load-bearing for the streamed-equals-materialized guarantee.
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    hdc::Rng rng(hdc::derive_seed(config.seed, rep));
    const FoldPlan plan =
        make_fold_plan(labels, num_classes, config.folds, config.stratified, rng);
    for (std::size_t f = 0; f < config.folds; ++f) {
      auto classifier = factory(hdc::derive_seed(config.seed, rep * 1000 + f));

      FoldResult fold;
      const auto expected_test = plan.test_labels(f);
      fold.test_size = expected_test.size();
      fold.train_size = plan.size() - fold.test_size;

      {
        // The training subset's class count (not the stream's): streamed
        // models must be shaped exactly like ones fit on the materialized
        // subset, whose GraphDataset::num_classes() is max label + 1.
        data::FilteredStream train(stream, plan.train_mask(f), plan.train_num_classes(f));
        const auto train_start = Clock::now();
        classifier->fit_stream(train, stream_options);
        fold.train_seconds = seconds_since(train_start);
      }

      std::vector<std::size_t> predictions;
      {
        data::FilteredStream test(stream, plan.test_mask(f));
        const auto test_start = Clock::now();
        predictions = classifier->predict_stream(test, stream_options);
        fold.test_seconds = seconds_since(test_start);
      }
      if (predictions.size() != expected_test.size()) {
        throw std::runtime_error(
            "cross_validate_stream: fold " + std::to_string(f) + " produced " +
            std::to_string(predictions.size()) + " predictions for " +
            std::to_string(expected_test.size()) +
            " planned test samples — the stream changed length between passes");
      }
      fold.accuracy = ml::accuracy(predictions, expected_test);
      if (config.record_predictions) fold.predictions = std::move(predictions);
      result.folds.push_back(std::move(fold));
    }
  }
  return result;
}

}  // namespace graphhd::eval
