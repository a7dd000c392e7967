/// Streaming k-fold evaluation tests: cross_validate_stream's two-pass
/// protocol (label scan -> FoldPlan -> per-fold FilteredStream replays) must
/// produce predictions and per-fold accuracies bit-identical to the
/// materialized cross_validate for the same seed — at any chunk size, thread
/// count, kernel variant and backend — and every malformed input (folds >
/// samples, single-class streams, mid-stream errors, non-re-openable
/// sources) must error cleanly, never crash.

#include "eval/cross_validation.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "data/scalability.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "eval/baselines.hpp"
#include "graph/generators.hpp"
#include "hdc/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd;
using data::DatasetStream;
using data::FilteredStream;
using data::GraphDataset;
using data::ReplayableStream;
using eval::CvConfig;
using eval::CvResult;
using graphhd::graph::cycle_graph;
using graphhd::graph::star_graph;
namespace kernels = hdc::kernels;
namespace proptest = graphhd::proptest;

/// Restores process-wide pool / kernel state so tests don't leak settings.
struct GlobalStateGuard {
  ~GlobalStateGuard() {
    parallel::set_threads(0);
    kernels::reset_from_env();
  }
};

[[nodiscard]] GraphDataset learnable_dataset(std::size_t num_graphs = 24) {
  data::ScalabilityConfig spec;
  spec.num_vertices = 30;
  spec.num_graphs = num_graphs;
  return data::make_scalability_dataset(spec, /*seed=*/0x5ca1eULL);
}

[[nodiscard]] core::GraphHdConfig fast_config(core::Backend backend) {
  core::GraphHdConfig config;
  config.dimension = 1024;
  config.seed = 0xe5a1;
  config.backend = backend;
  return config;
}

[[nodiscard]] CvConfig cv_config(std::size_t folds = 3, std::size_t reps = 2) {
  CvConfig cv;
  cv.folds = folds;
  cv.repetitions = reps;
  cv.record_predictions = true;
  return cv;
}

void expect_identical_results(const CvResult& materialized, const CvResult& streamed,
                              const std::string& context) {
  ASSERT_EQ(materialized.folds.size(), streamed.folds.size()) << context;
  for (std::size_t f = 0; f < materialized.folds.size(); ++f) {
    // Bit-identical doubles and label sequences, not just close: the
    // streamed pipeline reproduces the materialized arithmetic exactly.
    EXPECT_EQ(materialized.folds[f].accuracy, streamed.folds[f].accuracy)
        << context << " fold " << f;
    EXPECT_EQ(materialized.folds[f].predictions, streamed.folds[f].predictions)
        << context << " fold " << f;
    EXPECT_EQ(materialized.folds[f].train_size, streamed.folds[f].train_size)
        << context << " fold " << f;
    EXPECT_EQ(materialized.folds[f].test_size, streamed.folds[f].test_size)
        << context << " fold " << f;
  }
}

[[nodiscard]] CvResult run_materialized(const GraphDataset& dataset, core::Backend backend,
                                        const CvConfig& cv) {
  return cross_validate("GraphHD",
                        eval::make_graphhd_factory(fast_config(backend)),
                        dataset, cv);
}

[[nodiscard]] CvResult run_streamed(const GraphDataset& dataset, core::Backend backend,
                                    CvConfig cv, std::size_t chunk) {
  cv.stream.chunk = chunk;
  DatasetStream stream(dataset);
  return cross_validate_stream("GraphHD",
                               eval::make_graphhd_stream_factory(fast_config(backend)),
                               stream, dataset.name(), cv);
}

// ---------------------------------------------------------------------------
// FoldPlan
// ---------------------------------------------------------------------------

TEST(FoldPlan, MatchesStratifiedKfoldSplits) {
  const auto dataset = learnable_dataset();
  hdc::Rng a(42), b(42);
  const auto splits = data::stratified_kfold(dataset, 4, a);
  const auto plan = eval::make_fold_plan(dataset.labels(), dataset.num_classes(), 4,
                                         /*stratified=*/true, b);
  ASSERT_EQ(plan.size(), dataset.size());
  ASSERT_EQ(plan.folds, 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    std::vector<std::size_t> test_indices, train_indices;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      (plan.fold_of[i] == f ? test_indices : train_indices).push_back(i);
    }
    EXPECT_EQ(test_indices, splits[f].test) << "fold " << f;
    EXPECT_EQ(train_indices, splits[f].train) << "fold " << f;
  }
}

TEST(FoldPlan, MasksAndLabelsAreConsistent) {
  const std::vector<std::size_t> labels = {0, 1, 0, 1, 2, 0};
  hdc::Rng rng(7);
  const auto plan = eval::make_fold_plan(labels, 3, 2, /*stratified=*/true, rng);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto train = plan.train_mask(f);
    const auto test = plan.test_mask(f);
    ASSERT_EQ(train.size(), labels.size());
    ASSERT_EQ(test.size(), labels.size());
    std::size_t test_count = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      EXPECT_NE(train[i], test[i]) << "every sample is on exactly one side";
      test_count += test[i] ? 1 : 0;
    }
    EXPECT_EQ(plan.test_labels(f).size(), test_count);
    EXPECT_GE(plan.train_num_classes(f), 1u);
  }
}

TEST(FoldPlan, UnstratifiedCoversEverySampleOnce) {
  const std::vector<std::size_t> labels(17, 0);
  hdc::Rng rng(9);
  const auto plan = eval::make_fold_plan(labels, 1, 5, /*stratified=*/false, rng);
  std::vector<std::size_t> per_fold(5, 0);
  for (const std::size_t f : plan.fold_of) {
    ASSERT_LT(f, 5u);
    ++per_fold[f];
  }
  // 17 samples over 5 folds: sizes 4/4/3/3/3 in some order.
  for (const std::size_t count : per_fold) {
    EXPECT_GE(count, 3u);
    EXPECT_LE(count, 4u);
  }
}

TEST(FoldPlan, UnstratifiedDiffersFromStratifiedAssignment) {
  // Unbalanced two-class labels: stratification is visible in fold class
  // counts for at least one seed.
  std::vector<std::size_t> labels(20, 0);
  for (std::size_t i = 0; i < 4; ++i) labels[i] = 1;
  hdc::Rng a(3), b(3);
  const auto stratified = eval::make_fold_plan(labels, 2, 4, true, a);
  const auto plain = eval::make_fold_plan(labels, 2, 4, false, b);
  // Stratified: every fold holds exactly one class-1 sample.
  std::vector<std::size_t> ones_per_fold(4, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == 1) ++ones_per_fold[stratified.fold_of[i]];
  }
  for (const std::size_t count : ones_per_fold) EXPECT_EQ(count, 1u);
  EXPECT_NE(stratified.fold_of, plain.fold_of);
}

// ---------------------------------------------------------------------------
// FilteredStream / ReplayableStream
// ---------------------------------------------------------------------------

TEST(FilteredStreamTest, ReplaysExactlyTheKeptSubset) {
  const auto dataset = learnable_dataset(10);
  DatasetStream source(dataset);
  std::vector<bool> keep(dataset.size(), false);
  keep[1] = keep[4] = keep[7] = true;
  FilteredStream filtered(source, keep);
  EXPECT_EQ(filtered.size_hint(), std::optional<std::size_t>(3));
  EXPECT_EQ(filtered.num_classes(), dataset.num_classes());
  const auto labels = filtered.label_scan();
  ASSERT_TRUE(labels.has_value());
  EXPECT_EQ(*labels, (std::vector<std::size_t>{dataset.label(1), dataset.label(4),
                                               dataset.label(7)}));
  // Two replay passes must both produce the kept samples in source order.
  for (int pass = 0; pass < 2; ++pass) {
    filtered.reset();
    std::vector<std::size_t> seen;
    while (auto sample = filtered.next()) seen.push_back(sample->label);
    EXPECT_EQ(seen, *labels) << "pass " << pass;
  }
}

TEST(FilteredStreamTest, MaskShorterThanSourceThrows) {
  const auto dataset = learnable_dataset(10);
  DatasetStream source(dataset);
  FilteredStream filtered(source, std::vector<bool>(dataset.size() - 2, true));
  const auto drain = [&filtered] {
    while (filtered.next()) {
    }
  };
  EXPECT_THROW(drain(), std::runtime_error);
}

TEST(FilteredStreamTest, NumClassesOverrideIsBounded) {
  const auto dataset = learnable_dataset(10);
  DatasetStream source(dataset);
  const FilteredStream narrowed(source, std::vector<bool>(dataset.size(), true), 1);
  EXPECT_EQ(narrowed.num_classes(), 1u);
  EXPECT_THROW(FilteredStream(source, std::vector<bool>(dataset.size(), true),
                              dataset.num_classes() + 1),
               std::invalid_argument);
}

TEST(ReplayableStreamTest, ReopensThroughTheFactoryOnEveryReset) {
  const auto dataset = learnable_dataset(8);
  std::size_t opens = 0;
  ReplayableStream stream([&dataset, &opens]() -> std::unique_ptr<data::GraphStream> {
    ++opens;
    return std::make_unique<DatasetStream>(dataset);
  });
  EXPECT_EQ(opens, 1u);  // eager first open (num_classes).
  EXPECT_EQ(stream.num_classes(), dataset.num_classes());
  const auto first = data::materialize(stream, "first");
  const auto second = data::materialize(stream, "second");
  EXPECT_GE(opens, 3u);  // one per materialize()'s reset.
  ASSERT_EQ(first.size(), dataset.size());
  ASSERT_EQ(second.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(first.graph(i), second.graph(i)) << i;
  }
}

TEST(ReplayableStreamTest, NonReopenableSourceErrorsCleanly) {
  const auto dataset = learnable_dataset(8);
  std::size_t opens = 0;
  ReplayableStream stream([&dataset, &opens]() -> std::unique_ptr<data::GraphStream> {
    // A source that can only be opened once — the second open fails, as a
    // drained socket or consumed pipe would.
    if (++opens > 1) return nullptr;
    return std::make_unique<DatasetStream>(dataset);
  });
  EXPECT_THROW(stream.reset(), std::runtime_error);
  EXPECT_THROW((void)data::materialize(stream), std::runtime_error);
}

TEST(ReplayableStreamTest, ClassCountDriftOnReopenErrorsCleanly) {
  const auto two_classes = learnable_dataset(8);
  GraphDataset one_class("drifted", {star_graph(5)}, {0});
  std::size_t opens = 0;
  ReplayableStream stream([&]() -> std::unique_ptr<data::GraphStream> {
    ++opens;
    if (opens > 1) return std::make_unique<DatasetStream>(one_class);
    return std::make_unique<DatasetStream>(two_classes);
  });
  EXPECT_THROW(stream.reset(), std::runtime_error);
}

TEST(ReplayableStreamTest, ComposesWithTheStreamingPipeline) {
  // End to end: a ReplayableStream-backed source runs the whole streaming
  // CV protocol (fold replays and retrain epochs all go through reset()).
  const auto dataset = learnable_dataset(12);
  ReplayableStream stream(
      [&dataset]() { return std::make_unique<DatasetStream>(dataset); });
  auto cv = cv_config(3, 1);
  const auto materialized = run_materialized(dataset, core::Backend::kDenseBipolar, cv);
  const auto streamed = cross_validate_stream(
      "GraphHD",
      eval::make_graphhd_stream_factory(fast_config(core::Backend::kDenseBipolar)),
      stream, dataset.name(), cv);
  expect_identical_results(materialized, streamed, "replayable");
}

// ---------------------------------------------------------------------------
// cross_validate_stream == cross_validate (the acceptance matrix)
// ---------------------------------------------------------------------------

TEST(CrossValidateStream, BitIdenticalAcrossChunkSizes) {
  const auto dataset = learnable_dataset();
  const auto cv = cv_config();
  for (const core::Backend backend :
       {core::Backend::kDenseBipolar, core::Backend::kPackedBinary}) {
    const auto materialized = run_materialized(dataset, backend, cv);
    for (const std::size_t chunk : {1u, 7u, 64u}) {
      expect_identical_results(materialized, run_streamed(dataset, backend, cv, chunk),
                               "backend " + std::string(core::to_string(backend)) +
                                   " chunk " + std::to_string(chunk));
    }
  }
}

TEST(CrossValidateStream, BitIdenticalAcrossThreadCounts) {
  GlobalStateGuard guard;
  const auto dataset = learnable_dataset();
  const auto cv = cv_config();
  for (const core::Backend backend :
       {core::Backend::kDenseBipolar, core::Backend::kPackedBinary}) {
    parallel::set_threads(1);
    const auto materialized = run_materialized(dataset, backend, cv);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      parallel::set_threads(threads);
      expect_identical_results(materialized, run_streamed(dataset, backend, cv, 7),
                               "backend " + std::string(core::to_string(backend)) +
                                   " threads " + std::to_string(threads));
    }
  }
}

TEST(CrossValidateStream, BitIdenticalAcrossKernelVariants) {
  GlobalStateGuard guard;
  const auto dataset = learnable_dataset();
  const auto cv = cv_config();
  for (const core::Backend backend :
       {core::Backend::kDenseBipolar, core::Backend::kPackedBinary}) {
    kernels::set_active(kernels::scalar());
    const auto materialized = run_materialized(dataset, backend, cv);
    for (const kernels::KernelOps* ops : kernels::compiled_variants()) {
      if (!ops->supported()) continue;
      kernels::set_active(*ops);
      expect_identical_results(materialized, run_streamed(dataset, backend, cv, 7),
                               "backend " + std::string(core::to_string(backend)) +
                                   " kernel " + ops->name);
    }
    kernels::reset_from_env();
  }
}

TEST(CrossValidateStream, ExtensionsComposeBitIdentically) {
  // Retraining (stream replays per epoch) and multiple prototypes ride the
  // same protocol.
  const auto dataset = learnable_dataset();
  auto cv = cv_config(3, 1);
  core::GraphHdConfig config = fast_config(core::Backend::kPackedBinary);
  config.retrain_epochs = 2;
  config.vectors_per_class = 2;
  const auto materialized = cross_validate(
      "GraphHD", eval::make_graphhd_factory(config), dataset, cv);
  DatasetStream stream(dataset);
  cv.stream.chunk = 5;
  const auto streamed = cross_validate_stream(
      "GraphHD", eval::make_graphhd_stream_factory(config), stream, dataset.name(), cv);
  expect_identical_results(materialized, streamed, "retrain+prototypes");
}

TEST(CrossValidateStream, UnstratifiedModeIsSharedBitExactly) {
  const auto dataset = learnable_dataset();
  auto cv = cv_config();
  cv.stratified = false;
  const auto materialized = run_materialized(dataset, core::Backend::kPackedBinary, cv);
  expect_identical_results(materialized,
                           run_streamed(dataset, core::Backend::kPackedBinary, cv, 7),
                           "unstratified");
}

TEST(CrossValidateStream, WorksOnGeneratorStreamsWithoutMaterializing) {
  // The point of the subsystem: a generator-backed workload evaluated
  // without ever holding the dataset; equivalence vs a manually
  // materialized copy.
  const auto factory = [](std::size_t, std::size_t label, hdc::Rng& rng) {
    return label == 0 ? graph::erdos_renyi(24, 0.15, rng)
                      : graph::erdos_renyi(24, 0.3, rng);
  };
  data::GeneratorStream stream(18, 2, /*seed=*/0xfeedULL, factory);
  auto cv = cv_config(3, 1);
  cv.stream.chunk = 4;
  const auto config = fast_config(core::Backend::kPackedBinary);
  const auto streamed = cross_validate_stream(
      "GraphHD", eval::make_graphhd_stream_factory(config), stream, "er-gen", cv);
  const auto dataset = data::materialize(stream, "er-gen");
  const auto materialized =
      cross_validate("GraphHD", eval::make_graphhd_factory(config), dataset, cv);
  expect_identical_results(materialized, streamed, "generator");
  EXPECT_EQ(streamed.dataset, "er-gen");
  EXPECT_EQ(streamed.method, "GraphHD");
}

// ---------------------------------------------------------------------------
// Property: streamed == materialized over random datasets / protocols.
// ---------------------------------------------------------------------------

struct CvCase {
  std::size_t num_graphs = 0;
  std::size_t num_classes = 2;
  std::size_t folds = 2;
  std::size_t chunk = 1;
  bool stratified = true;
  core::Backend backend = core::Backend::kDenseBipolar;
  std::uint64_t data_seed = 0;
};

std::ostream& operator<<(std::ostream& out, const CvCase& c) {
  return out << "n=" << c.num_graphs << " classes=" << c.num_classes << " folds=" << c.folds
             << " chunk=" << c.chunk << " stratified=" << (c.stratified ? "yes" : "no")
             << " backend=" << core::to_string(c.backend) << " data_seed=" << c.data_seed;
}

[[nodiscard]] GraphDataset random_dataset(const CvCase& c) {
  GraphDataset dataset("prop", {}, {});
  hdc::Rng rng(c.data_seed);
  for (std::size_t i = 0; i < c.num_graphs; ++i) {
    // Labels rotate so every class is populated; structure varies by label
    // plus noise so there is real (if weak) signal.
    const std::size_t label = i % c.num_classes;
    const std::size_t n = 8 + rng.next_below(10);
    switch (label % 3) {
      case 0:
        dataset.add(star_graph(n), label);
        break;
      case 1:
        dataset.add(cycle_graph(n), label);
        break;
      default:
        dataset.add(graph::erdos_renyi(n, 0.3, rng), label);
        break;
    }
  }
  return dataset;
}

TEST(CrossValidateStream, PropertyStreamedEqualsMaterialized) {
  proptest::check<CvCase>(
      "streamed CV == materialized CV",
      [](hdc::Rng& rng, std::size_t case_index) {
        CvCase c;
        c.folds = 2 + rng.next_below(4);                     // 2..5
        c.num_classes = 2 + rng.next_below(3);               // 2..4
        c.num_graphs = c.folds + c.num_classes + rng.next_below(18);
        c.chunk = 1 + rng.next_below(9);                     // 1..9
        c.stratified = rng.next_bool();
        c.backend = case_index % 2 == 0 ? core::Backend::kPackedBinary
                                        : core::Backend::kDenseBipolar;
        c.data_seed = rng();
        return c;
      },
      [](const CvCase& failing) {
        std::vector<CvCase> candidates;
        if (failing.num_graphs > failing.folds + failing.num_classes) {
          CvCase fewer = failing;
          fewer.num_graphs -= 1;
          candidates.push_back(fewer);
        }
        if (failing.folds > 2) {
          CvCase fewer_folds = failing;
          fewer_folds.folds -= 1;
          candidates.push_back(fewer_folds);
        }
        if (failing.chunk > 1) {
          CvCase smaller_chunk = failing;
          smaller_chunk.chunk = 1;
          candidates.push_back(smaller_chunk);
        }
        if (!failing.stratified) {
          CvCase strat = failing;
          strat.stratified = true;
          candidates.push_back(strat);
        }
        return candidates;
      },
      [](const CvCase& c, std::ostream& diag) {
        diag << c;
        const auto dataset = random_dataset(c);
        CvConfig cv;
        cv.folds = c.folds;
        cv.repetitions = 1;
        cv.stratified = c.stratified;
        cv.record_predictions = true;
        cv.stream.chunk = c.chunk;
        core::GraphHdConfig config;
        config.dimension = 256;
        config.backend = c.backend;
        // Both protocols must agree on outcome: identical results, or the
        // same exception type for degenerate draws (e.g. a fold whose
        // training side collapses to one class).
        std::optional<CvResult> materialized, streamed;
        std::string materialized_error, streamed_error;
        try {
          materialized = cross_validate(
              "GraphHD", eval::make_graphhd_factory(config), dataset, cv);
        } catch (const std::exception& error) {
          materialized_error = error.what();
        }
        try {
          DatasetStream stream(dataset);
          streamed = cross_validate_stream(
              "GraphHD", eval::make_graphhd_stream_factory(config), stream,
              dataset.name(), cv);
        } catch (const std::exception& error) {
          streamed_error = error.what();
        }
        if (materialized.has_value() != streamed.has_value()) {
          diag << " | outcome mismatch: materialized "
               << (materialized ? "succeeded" : "threw '" + materialized_error + "'")
               << ", streamed "
               << (streamed ? "succeeded" : "threw '" + streamed_error + "'");
          return false;
        }
        if (!materialized.has_value()) return true;  // both threw — agree.
        if (materialized->folds.size() != streamed->folds.size()) {
          diag << " | fold count mismatch";
          return false;
        }
        for (std::size_t f = 0; f < materialized->folds.size(); ++f) {
          if (materialized->folds[f].accuracy != streamed->folds[f].accuracy ||
              materialized->folds[f].predictions != streamed->folds[f].predictions) {
            diag << " | fold " << f << " diverges (accuracy "
                 << materialized->folds[f].accuracy << " vs " << streamed->folds[f].accuracy
                 << ")";
            return false;
          }
        }
        return true;
      },
      proptest::Config{.cases = 24, .max_shrink_steps = 60});
}

// ---------------------------------------------------------------------------
// Clean failure modes (the fuzz half of the contract).
// ---------------------------------------------------------------------------

/// Wraps a DatasetStream and throws after `fail_after` samples — a source
/// whose backing file/socket dies mid-replay.
class FailingStream final : public data::GraphStream {
 public:
  FailingStream(const GraphDataset& dataset, std::size_t fail_after)
      : inner_(dataset), fail_after_(fail_after) {}

  [[nodiscard]] std::optional<data::StreamSample> next() override {
    if (pulled_ >= fail_after_) {
      throw std::runtime_error("FailingStream: simulated mid-stream IO error");
    }
    ++pulled_;
    return inner_.next();
  }
  void reset() override {
    inner_.reset();
    pulled_ = 0;
  }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }

 private:
  DatasetStream inner_;
  std::size_t fail_after_ = 0;
  std::size_t pulled_ = 0;
};

TEST(CrossValidateStream, MidStreamErrorPropagatesCleanly) {
  const auto dataset = learnable_dataset(12);
  const auto factory =
      eval::make_graphhd_stream_factory(fast_config(core::Backend::kPackedBinary));
  // Fail at every possible point, including during the label scan (no
  // label_scan fast path here, so pass 1 replays the graphs).
  for (const std::size_t fail_after : {0u, 1u, 5u, 11u}) {
    FailingStream stream(dataset, fail_after);
    EXPECT_THROW((void)cross_validate_stream("GraphHD", factory, stream, "failing",
                                             cv_config(3, 1)),
                 std::runtime_error)
        << "fail_after " << fail_after;
  }
}

TEST(CrossValidateStream, SingleClassStreamErrorsCleanly) {
  GraphDataset dataset("mono", {}, {});
  for (std::size_t i = 0; i < 8; ++i) dataset.add(star_graph(6 + i), 0);
  DatasetStream stream(dataset);
  const auto factory =
      eval::make_graphhd_stream_factory(fast_config(core::Backend::kDenseBipolar));
  EXPECT_THROW(
      (void)cross_validate_stream("GraphHD", factory, stream, "mono", cv_config(2, 1)),
      std::invalid_argument);
}

TEST(CrossValidateStream, RejectsParallelFoldsAndZeroChunk) {
  const auto dataset = learnable_dataset(8);
  DatasetStream stream(dataset);
  const auto factory =
      eval::make_graphhd_stream_factory(fast_config(core::Backend::kDenseBipolar));
  auto cv = cv_config(2, 1);
  cv.parallel_folds = true;
  EXPECT_THROW((void)cross_validate_stream("GraphHD", factory, stream, "x", cv),
               std::invalid_argument);
  cv.parallel_folds = false;
  cv.stream.chunk = 0;
  EXPECT_THROW((void)cross_validate_stream("GraphHD", factory, stream, "x", cv),
               std::invalid_argument);
}

TEST(CrossValidate, RejectsMoreFoldsThanGraphsWithClearError) {
  // Regression: folds > num_graphs used to surface as a generic
  // stratified_kfold error from deep inside the job loop; both protocols
  // now reject it up front, naming both numbers.
  const auto dataset = learnable_dataset(6);
  const auto check_message = [](const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("folds (7)"), std::string::npos) << what;
    EXPECT_NE(what.find("graphs (6)"), std::string::npos) << what;
  };
  try {
    (void)cross_validate("GraphHD",
                         eval::make_graphhd_factory(fast_config(core::Backend::kDenseBipolar)),
                         dataset, cv_config(7, 1));
    FAIL() << "cross_validate accepted folds > num_graphs";
  } catch (const std::invalid_argument& error) {
    check_message(error);
  }
  DatasetStream stream(dataset);
  try {
    (void)cross_validate_stream(
        "GraphHD",
        eval::make_graphhd_stream_factory(fast_config(core::Backend::kDenseBipolar)),
        stream, "x", cv_config(7, 1));
    FAIL() << "cross_validate_stream accepted folds > num_graphs";
  } catch (const std::invalid_argument& error) {
    check_message(error);
  }
}

TEST(CollectLabels, FastPathAndFallbackAgree) {
  const auto dataset = learnable_dataset(10);
  DatasetStream with_fast_path(dataset);
  // fail_after counts next() calls including the EOF probe, so size() + 1
  // pulls cleanly to the end without ever failing.
  FailingStream no_fast_path(dataset, dataset.size() + 1);
  EXPECT_EQ(data::collect_labels(with_fast_path), dataset.labels());
  EXPECT_EQ(data::collect_labels(no_fast_path), dataset.labels());
}

}  // namespace
