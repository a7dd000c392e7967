/// Tests of src/parallel/: the deterministic thread pool and the parallel
/// batch encode/predict paths built on it.  The load-bearing property is
/// *bit-identical results at any thread count* — parallelism must never
/// change what the model computes, only how fast.

#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/scalability.hpp"
#include "eval/baselines.hpp"
#include "eval/cross_validation.hpp"
#include "graph/generators.hpp"

namespace {

using graphhd::core::GraphHd;
using graphhd::core::GraphHdConfig;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::star_graph;
namespace parallel = graphhd::parallel;

/// Restores the process-wide pool so tests don't leak thread settings.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_threads(0); }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 3u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<int>> visits(n);
    pool.for_each_index(n, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, ChunkPartitionIsFixedAndContiguous) {
  parallel::ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.for_each_chunk(103, [&](std::size_t begin, std::size_t end, std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 4u);
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 103u);
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c - 1].second, chunks[c].first) << "gap or overlap at chunk " << c;
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(64,
                                   [](std::size_t i) {
                                     if (i == 13) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The pool must stay usable after a throwing batch.
  std::atomic<int> sum{0};
  pool.for_each_index(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedSectionsRunInline) {
  parallel::ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(32);  // 4 one-item chunks x 8 inner indices.
  pool.for_each_chunk(4, [&](std::size_t, std::size_t, std::size_t chunk) {
    // A parallel_for from inside a worker must not deadlock or re-enter.
    parallel::parallel_for(8, [&](std::size_t i) { visits[chunk * 8 + i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, SetThreadsResizesGlobalPool) {
  ThreadGuard guard;
  parallel::set_threads(3);
  EXPECT_EQ(parallel::current_threads(), 3u);
  parallel::set_threads(1);
  EXPECT_EQ(parallel::current_threads(), 1u);
  parallel::set_threads(0);
  EXPECT_EQ(parallel::current_threads(), parallel::configured_threads());
}

GraphDataset toy_dataset() {
  GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < 12; ++i) {
    dataset.add(star_graph(8 + i % 4), 0);
    dataset.add(cycle_graph(8 + i % 4), 1);
  }
  return dataset;
}

/// Fit + predict the toy dataset at a given thread count.
std::vector<std::size_t> predictions_with_threads(std::size_t threads) {
  parallel::set_threads(threads);
  GraphHdConfig config;
  config.dimension = 2048;
  GraphHd classifier(config);
  const auto dataset = toy_dataset();
  classifier.fit(dataset);
  return classifier.predict_batch(dataset);
}

TEST(ParallelModel, FitPredictBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto serial = predictions_with_threads(1);
  EXPECT_EQ(predictions_with_threads(2), serial);
  EXPECT_EQ(predictions_with_threads(8), serial);
}

TEST(ParallelModel, ClassVectorsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  GraphHdConfig config;
  config.dimension = 1024;
  const auto dataset = toy_dataset();

  auto class_vectors = [&](std::size_t threads) {
    parallel::set_threads(threads);
    GraphHd classifier(config);
    classifier.fit(dataset);
    return std::pair{classifier.model().memory().packed_class_vector(0),
                     classifier.model().memory().packed_class_vector(1)};
  };
  const auto serial = class_vectors(1);
  EXPECT_EQ(class_vectors(2), serial);
  EXPECT_EQ(class_vectors(8), serial);
}

TEST(ParallelModel, BatchPredictMatchesPerGraphPredict) {
  ThreadGuard guard;
  parallel::set_threads(4);
  GraphHdConfig config;
  config.dimension = 2048;
  GraphHd classifier(config);
  const auto dataset = toy_dataset();
  classifier.fit(dataset);

  const auto batch = classifier.predict_batch(dataset);
  ASSERT_EQ(batch.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(batch[i], classifier.predict(dataset.graph(i))) << "sample " << i;
  }
}

TEST(ParallelModel, LabeledDatasetEncodesLikeFitAndStaysDeterministic) {
  // With use_vertex_labels, predict_batch must bind labels exactly as fit()
  // does (train/test encodings stay compatible — single-graph predict() has
  // no label argument and cannot), and stay bit-identical across threads.
  ThreadGuard guard;
  GraphHdConfig config;
  config.dimension = 1024;
  config.use_vertex_labels = true;
  auto dataset = toy_dataset();
  std::vector<std::vector<std::size_t>> vertex_labels;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    vertex_labels.emplace_back(dataset.graph(i).num_vertices(), i % 3);
  }
  dataset.set_vertex_labels(std::move(vertex_labels));

  auto run = [&](std::size_t threads) {
    parallel::set_threads(threads);
    GraphHd classifier(config);
    classifier.fit(dataset);
    const auto predictions = classifier.predict_batch(dataset);
    // evaluate() is the seed's labeled test-time path; predict_batch must
    // agree with it sample for sample.
    std::size_t hits = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      hits += static_cast<std::size_t>(predictions[i] == dataset.label(i));
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(hits) / static_cast<double>(dataset.size()),
                     classifier.score(dataset));
    return predictions;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelModel, RetrainingExtensionStaysDeterministic) {
  ThreadGuard guard;
  GraphHdConfig config;
  config.dimension = 1024;
  config.retrain_epochs = 3;
  config.vectors_per_class = 2;
  const auto dataset = toy_dataset();

  auto run = [&](std::size_t threads) {
    parallel::set_threads(threads);
    GraphHd classifier(config);
    classifier.fit(dataset);
    return classifier.predict_batch(dataset);
  };
  const auto serial = run(1);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelModel, ConcurrentFirstPredictionsShareOneSnapshot) {
  // predict_encoded is const, so threads may race to make the first
  // snapshot() call on a freshly fitted model: the lazy build must run once,
  // under the model's lock (the TSan row runs this suite).
  GraphHdConfig config;
  config.dimension = 1024;
  const auto dataset = toy_dataset();
  graphhd::core::GraphHdModel reference(config, 2);
  reference.fit(dataset);
  graphhd::core::GraphHdModel model(config, 2);
  model.fit(dataset);
  const auto query = model.encoder().encode_packed(star_graph(9));
  const auto expected = reference.predict_encoded(query);

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> arrived{0};
  std::vector<graphhd::core::Prediction> predictions(kThreads);
  std::vector<std::shared_ptr<const graphhd::core::InferenceSnapshot>> snapshots(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      predictions[t] = model.predict_encoded(query);
      snapshots[t] = model.snapshot();
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshots[t], snapshots[0]) << "thread " << t;
    EXPECT_EQ(predictions[t].label, expected.label) << "thread " << t;
    EXPECT_EQ(predictions[t].score, expected.score) << "thread " << t;
    EXPECT_EQ(predictions[t].class_scores, expected.class_scores) << "thread " << t;
  }
}

TEST(ParallelCv, ParallelFoldsMatchSerialAccuracies) {
  ThreadGuard guard;
  const auto dataset = graphhd::data::make_scalability_dataset(
      {.num_vertices = 30, .num_graphs = 40}, /*seed=*/0xcafeULL);

  GraphHdConfig config;
  config.dimension = 1024;
  auto factory = graphhd::eval::make_graphhd_factory(config);

  graphhd::eval::CvConfig cv;
  cv.folds = 4;
  cv.repetitions = 2;

  cv.parallel_folds = false;
  const auto serial = graphhd::eval::cross_validate("GraphHD", factory, dataset, cv);

  cv.parallel_folds = true;
  parallel::set_threads(4);
  const auto parallel_result = graphhd::eval::cross_validate("GraphHD", factory, dataset, cv);

  ASSERT_EQ(parallel_result.folds.size(), serial.folds.size());
  for (std::size_t f = 0; f < serial.folds.size(); ++f) {
    EXPECT_DOUBLE_EQ(parallel_result.folds[f].accuracy, serial.folds[f].accuracy)
        << "fold " << f;
    EXPECT_EQ(parallel_result.folds[f].train_size, serial.folds[f].train_size);
    EXPECT_EQ(parallel_result.folds[f].test_size, serial.folds[f].test_size);
  }
}

TEST(ParallelCv, RejectsFewerThanTwoFolds) {
  const auto dataset = toy_dataset();
  auto factory = graphhd::eval::make_graphhd_factory();
  graphhd::eval::CvConfig cv;
  cv.folds = 1;
  EXPECT_THROW(
      { auto r = graphhd::eval::cross_validate("GraphHD", factory, dataset, cv); (void)r; },
      std::invalid_argument);
}

}  // namespace
