/// Streaming-ingestion tests: every GraphStream implementation must replay
/// its source exactly, and the chunked fit_stream / predict_stream pipeline
/// must be bit-identical to the materialized fit / predict_batch path — at
/// any chunk size, thread count, kernel variant and backend.  That identity
/// is what lets the scale path (bench/stress_stream) trust the paper-exact
/// reference implementation.

#include "data/stream.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "graph/generators.hpp"
#include "hdc/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd;
using data::DatasetStream;
using data::GeneratorStream;
using data::GraphDataset;
using data::TUDatasetStream;
using data::TUDatasetWriter;

[[nodiscard]] fs::path fresh_temp_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("graphhd_stream_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

[[nodiscard]] GraphDataset small_replica() {
  return data::make_synthetic_replica("MUTAG", /*seed=*/21, /*scale=*/0.06);
}

void expect_same_dataset(const GraphDataset& a, const GraphDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.graph(i), b.graph(i)) << "graph " << i;
    EXPECT_EQ(a.label(i), b.label(i)) << "label " << i;
  }
  ASSERT_EQ(a.has_vertex_labels(), b.has_vertex_labels());
  if (a.has_vertex_labels()) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.vertex_labels()[i], b.vertex_labels()[i]) << "vertex labels " << i;
    }
  }
}

void expect_same_predictions(const std::vector<core::Prediction>& a,
                             const std::vector<core::Prediction>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << what << " sample " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " sample " << i;
    EXPECT_EQ(a[i].class_scores, b[i].class_scores) << what << " sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Stream sources
// ---------------------------------------------------------------------------

TEST(DatasetStreamTest, MaterializesBackToTheSource) {
  const auto dataset = small_replica();
  DatasetStream stream(dataset);
  EXPECT_EQ(stream.num_classes(), dataset.num_classes());
  EXPECT_EQ(stream.size_hint(), std::optional<std::size_t>(dataset.size()));
  expect_same_dataset(data::materialize(stream), dataset);
}

TEST(DatasetStreamTest, NextChunkHonorsSizeAndOrder) {
  const auto dataset = small_replica();
  DatasetStream stream(dataset);
  stream.reset();
  std::size_t seen = 0;
  while (true) {
    const auto chunk = data::next_chunk(stream, 3);
    if (chunk.empty()) break;
    ASSERT_LE(chunk.size(), 3u);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      EXPECT_EQ(chunk.graph(i), dataset.graph(seen + i));
      EXPECT_EQ(chunk.label(i), dataset.label(seen + i));
    }
    seen += chunk.size();
  }
  EXPECT_EQ(seen, dataset.size());
}

TEST(GeneratorStreamTest, DeterministicAndChunkInvariant) {
  const auto factory = [](std::size_t, std::size_t label, hdc::Rng& rng) {
    return label == 0 ? graph::rmat(64, 128, rng) : graph::random_geometric(64, 0.2, rng);
  };
  GeneratorStream a(10, 2, 99, factory);
  GeneratorStream b(10, 2, 99, factory);
  const auto whole = data::materialize(a);
  // Pull b in ragged chunks; per-index seed derivation makes the boundary
  // invisible.
  b.reset();
  std::vector<graph::Graph> graphs;
  std::vector<std::size_t> labels;
  for (const std::size_t chunk_size : {1u, 3u, 2u, 10u}) {
    const auto chunk = data::next_chunk(b, chunk_size);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      graphs.push_back(chunk.graph(i));
      labels.push_back(chunk.label(i));
    }
  }
  ASSERT_EQ(graphs.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(graphs[i], whole.graph(i)) << "graph " << i;
    EXPECT_EQ(labels[i], whole.label(i)) << "label " << i;
    EXPECT_EQ(whole.label(i), i % 2) << "labels deal round-robin";
  }
}

TEST(GeneratorStreamTest, ValidatesArguments) {
  const auto factory = [](std::size_t, std::size_t, hdc::Rng& rng) {
    return graph::random_tree(4, rng);
  };
  EXPECT_THROW(GeneratorStream(4, 0, 1, factory), std::invalid_argument);
  EXPECT_THROW(GeneratorStream(4, 2, 1, nullptr), std::invalid_argument);
}

TEST(TUDatasetStreamTest, MatchesTheMaterializedLoader) {
  const auto dataset = small_replica();
  ASSERT_TRUE(dataset.has_vertex_labels());
  const fs::path dir = fresh_temp_dir("tud_loader");
  data::save_tudataset(dataset, dir);

  const auto reference = data::load_tudataset(dir, dataset.name());
  TUDatasetStream stream(dir, dataset.name());
  EXPECT_EQ(stream.num_classes(), reference.num_classes());
  EXPECT_EQ(stream.labels(), reference.labels());
  expect_same_dataset(data::materialize(stream, dataset.name()), reference);
  // And again after reset — the cursor rebuilds cleanly.
  expect_same_dataset(data::materialize(stream, dataset.name()), reference);
  fs::remove_all(dir);
}

TEST(TUDatasetStreamTest, RejectsUngroupedAdjacencyRows) {
  const fs::path dir = fresh_temp_dir("tud_ungrouped");
  // Two 2-vertex graphs; the second graph's edge comes first.
  std::ofstream(dir / "DS_A.txt") << "3, 4\n4, 3\n1, 2\n2, 1\n";
  std::ofstream(dir / "DS_graph_indicator.txt") << "1\n1\n2\n2\n";
  std::ofstream(dir / "DS_graph_labels.txt") << "0\n1\n";
  TUDatasetStream stream(dir, "DS");
  EXPECT_THROW((void)data::materialize(stream), std::runtime_error);
  // The materialized loader still accepts the same directory.
  EXPECT_EQ(data::load_tudataset(dir, "DS").size(), 2u);
  fs::remove_all(dir);
}

TEST(TUDatasetStreamTest, RejectsNonMonotoneIndicator) {
  const fs::path dir = fresh_temp_dir("tud_nonmono");
  std::ofstream(dir / "DS_A.txt") << "";
  std::ofstream(dir / "DS_graph_indicator.txt") << "1\n2\n1\n2\n";
  std::ofstream(dir / "DS_graph_labels.txt") << "0\n1\n";
  TUDatasetStream stream(dir, "DS");
  EXPECT_THROW((void)data::materialize(stream), std::runtime_error);
  fs::remove_all(dir);
}

TEST(TUDatasetWriterTest, ProducesByteIdenticalFilesToSaveTudataset) {
  // save_tudataset is a loop over the writer, so both are pinned against the
  // expected bytes.  The vertex-free first graph writes no indicator or
  // node-label rows and must not fix the writer's labeled mode.
  GraphDataset dataset("DS", {graph::Graph{}, graph::path_graph(2), graph::path_graph(3)},
                       {2, 1, 0});
  dataset.set_vertex_labels({{}, {4, 5}, {6, 4, 7}});
  const fs::path bulk_dir = fresh_temp_dir("writer_bulk");
  const fs::path stream_dir = fresh_temp_dir("writer_stream");
  data::save_tudataset(dataset, bulk_dir);
  {
    TUDatasetWriter writer(stream_dir, dataset.name());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      writer.append(dataset.graph(i), dataset.label(i), dataset.vertex_labels()[i]);
    }
    writer.close();
    EXPECT_EQ(writer.graphs_written(), dataset.size());
  }
  const auto read_file = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::pair<const char*, const char*> expected[] = {
      {"DS_A.txt", "1, 2\n2, 1\n3, 4\n4, 3\n4, 5\n5, 4\n"},
      {"DS_graph_indicator.txt", "2\n2\n3\n3\n3\n"},
      {"DS_graph_labels.txt", "2\n1\n0\n"},
      {"DS_node_labels.txt", "4\n5\n6\n4\n7\n"},
  };
  for (const auto& [file, bytes] : expected) {
    EXPECT_EQ(read_file(stream_dir / file), bytes) << file;
    EXPECT_EQ(read_file(bulk_dir / file), bytes) << file;
  }
  fs::remove_all(bulk_dir);
  fs::remove_all(stream_dir);
}

TEST(TUDatasetWriterTest, RejectsInconsistentVertexLabelUse) {
  const fs::path dir = fresh_temp_dir("writer_mixed");
  const auto dataset = small_replica();
  TUDatasetWriter writer(dir, "DS");
  writer.append(dataset.graph(0), 0, dataset.vertex_labels()[0]);
  EXPECT_THROW(writer.append(dataset.graph(1), 1), std::invalid_argument);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Model plumbing: fit_stream / predict_stream == fit / predict_batch
// ---------------------------------------------------------------------------

class StreamEquivalence : public ::testing::TestWithParam<core::Backend> {
 protected:
  [[nodiscard]] core::GraphHdConfig config(std::size_t retrain = 0) const {
    core::GraphHdConfig config;
    config.dimension = 768;
    config.backend = GetParam();
    config.retrain_epochs = retrain;
    return config;
  }
};

TEST_P(StreamEquivalence, FitStreamMatchesFitAtEveryChunkSize) {
  const auto dataset = small_replica();
  core::GraphHdModel reference(config(), dataset.num_classes());
  reference.fit(dataset);
  const auto expected = reference.predict_batch(dataset);
  for (const std::size_t chunk : {1u, 3u, 7u, 64u}) {
    DatasetStream stream(dataset);
    core::GraphHdModel streamed(config(), dataset.num_classes());
    streamed.fit_stream(stream, {.chunk = chunk});
    expect_same_predictions(streamed.predict_batch(dataset), expected,
                            "chunk " + std::to_string(chunk));
  }
}

TEST_P(StreamEquivalence, FitStreamMatchesFitWithRetraining) {
  const auto dataset = small_replica();
  core::GraphHdModel reference(config(/*retrain=*/3), dataset.num_classes());
  reference.fit(dataset);
  DatasetStream stream(dataset);
  core::GraphHdModel streamed(config(/*retrain=*/3), dataset.num_classes());
  streamed.fit_stream(stream, {.chunk = 5});
  expect_same_predictions(streamed.predict_batch(dataset), reference.predict_batch(dataset),
                          "retrained");
}

TEST_P(StreamEquivalence, PredictStreamMatchesPredictBatch) {
  const auto dataset = small_replica();
  core::GraphHdModel model(config(), dataset.num_classes());
  model.fit(dataset);
  const auto expected = model.predict_batch(dataset);
  for (const std::size_t chunk : {1u, 4u, 128u}) {
    DatasetStream stream(dataset);
    expect_same_predictions(model.predict_stream(stream, {.chunk = chunk}), expected,
                            "chunk " + std::to_string(chunk));
  }
  // Sink overload delivers the same values in order.
  DatasetStream stream(dataset);
  std::size_t delivered = 0;
  const auto sink = [&](std::size_t index, const core::Prediction& prediction) {
    ASSERT_EQ(index, delivered);
    EXPECT_EQ(prediction.label, expected[index].label);
    EXPECT_EQ(prediction.score, expected[index].score);
    ++delivered;
  };
  model.predict_stream(stream, {.chunk = 4}, sink);
  EXPECT_EQ(delivered, dataset.size());
}

TEST_P(StreamEquivalence, InvariantAcrossThreadCountsAndKernels) {
  namespace kernels = hdc::kernels;
  const auto dataset = small_replica();
  core::GraphHdModel reference(config(), dataset.num_classes());
  reference.fit(dataset);
  const auto expected = reference.predict_batch(dataset);

  const kernels::KernelOps* startup = &kernels::active();
  for (const std::size_t threads : {1u, 3u}) {
    parallel::set_threads(threads);
    for (const kernels::KernelOps* ops : kernels::compiled_variants()) {
      if (!ops->supported()) continue;
      kernels::set_active(*ops);
      DatasetStream stream(dataset);
      core::GraphHdModel streamed(config(), dataset.num_classes());
      streamed.fit_stream(stream, {.chunk = 6});
      DatasetStream predict_source(dataset);
      expect_same_predictions(
          streamed.predict_stream(predict_source, {.chunk = 5}), expected,
          std::string(ops->name) + " @" + std::to_string(threads) + " threads");
    }
  }
  kernels::set_active(*startup);
  parallel::set_threads(0);
}

TEST_P(StreamEquivalence, FitStreamValidatesItsInputs) {
  const auto dataset = small_replica();
  DatasetStream stream(dataset);
  core::GraphHdModel model(config(), dataset.num_classes());
  EXPECT_THROW(model.fit_stream(stream, {.chunk = 0}), std::invalid_argument);
  model.fit_stream(stream, {.chunk = 4});
  DatasetStream again(dataset);
  EXPECT_THROW(model.fit_stream(again, {.chunk = 4}), std::logic_error);

  core::GraphHdModel tiny(config(), 2);
  GeneratorStream wide(4, 3, 7, [](std::size_t, std::size_t, hdc::Rng& rng) {
    return graph::random_tree(6, rng);
  });
  EXPECT_THROW(tiny.fit_stream(wide, {.chunk = 2}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamEquivalence,
                         ::testing::Values(core::Backend::kDenseBipolar,
                                           core::Backend::kPackedBinary),
                         [](const auto& info) {
                           return info.param == core::Backend::kDenseBipolar ? "dense" : "packed";
                         });

TEST(PipelineStream, FacadeTrainsAndPredictsOverStreams) {
  const auto dataset = small_replica();
  core::GraphHdConfig config;
  config.dimension = 512;
  core::GraphHd classifier(config);
  DatasetStream train(dataset);
  classifier.fit_stream(train, {.chunk = 4});
  DatasetStream test(dataset);
  const auto streamed = classifier.predict_stream(test, {.chunk = 4});
  EXPECT_EQ(streamed, classifier.predict_batch(dataset));
}

TEST(PipelineStream, EndToEndOverTUDatasetFiles) {
  // The CLI's --stream path in miniature: generator -> TUDatasetWriter ->
  // TUDatasetStream -> fit_stream, predictions equal to the materialized
  // equivalent of the same directory.
  const fs::path dir = fresh_temp_dir("pipeline_e2e");
  {
    GeneratorStream source(14, 2, 5, [](std::size_t, std::size_t label, hdc::Rng& rng) {
      return label == 0 ? graph::rmat(48, 120, rng)
                        : graph::rmat(48, 120, graph::RmatParams{0.3, 0.25, 0.25}, rng);
    });
    TUDatasetWriter writer(dir / "RMAT", "RMAT");
    while (auto sample = source.next()) writer.append(sample->graph, sample->label);
    writer.close();
  }
  core::GraphHdConfig config;
  config.dimension = 512;
  TUDatasetStream stream(dir / "RMAT", "RMAT");
  core::GraphHdModel streamed(config, stream.num_classes());
  streamed.fit_stream(stream, {.chunk = 4});

  const auto dataset = data::load_tudataset(dir / "RMAT", "RMAT");
  core::GraphHdModel materialized(config, dataset.num_classes());
  materialized.fit(dataset);

  TUDatasetStream predict_source(dir / "RMAT", "RMAT");
  expect_same_predictions(streamed.predict_stream(predict_source, {.chunk = 3}),
                          materialized.predict_batch(dataset), "tudataset e2e");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ShardedStream: the round-robin partitioner of sharded fits
// ---------------------------------------------------------------------------

TEST(ShardedStreamTest, ShardsAreDisjointAndCoverTheSourceInOrder) {
  const auto dataset = small_replica();
  for (const std::size_t num_shards : {1u, 2u, 3u, 5u}) {
    std::vector<bool> seen(dataset.size(), false);
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
      DatasetStream source(dataset);
      data::ShardedStream view(source, shard, num_shards);
      EXPECT_EQ(view.shard(), shard);
      EXPECT_EQ(view.num_shards(), num_shards);
      std::size_t expected_index = shard;
      while (auto sample = view.next()) {
        ASSERT_LT(expected_index, dataset.size());
        EXPECT_FALSE(seen[expected_index]) << "sample yielded by two shards";
        seen[expected_index] = true;
        EXPECT_EQ(sample->graph, dataset.graph(expected_index)) << "index " << expected_index;
        EXPECT_EQ(sample->label, dataset.label(expected_index));
        expected_index += num_shards;
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_TRUE(seen[i]) << "sample " << i << " missed at W=" << num_shards;
    }
  }
}

TEST(ShardedStreamTest, SizeHintAndLabelScanMatchTheActualShard) {
  const auto dataset = small_replica();
  for (const std::size_t num_shards : {1u, 2u, 3u, 4u}) {
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
      DatasetStream source(dataset);
      data::ShardedStream view(source, shard, num_shards);

      std::vector<std::size_t> pulled_labels;
      while (auto sample = view.next()) pulled_labels.push_back(sample->label);

      const auto hint = view.size_hint();
      ASSERT_TRUE(hint.has_value());
      EXPECT_EQ(*hint, pulled_labels.size()) << "shard " << shard << "/" << num_shards;

      const auto scanned = view.label_scan();
      ASSERT_TRUE(scanned.has_value());
      EXPECT_EQ(*scanned, pulled_labels);
      EXPECT_EQ(view.num_classes(), dataset.num_classes());
    }
  }
}

TEST(ShardedStreamTest, ResetReplaysTheShardExactly) {
  const auto dataset = small_replica();
  DatasetStream source(dataset);
  data::ShardedStream view(source, 1, 3);
  std::vector<std::size_t> first;
  while (auto sample = view.next()) first.push_back(sample->label);
  view.reset();
  std::vector<std::size_t> second;
  while (auto sample = view.next()) second.push_back(sample->label);
  EXPECT_EQ(first, second);
}

TEST(ShardedStreamTest, OwningModeOpensItsOwnSource) {
  const auto dataset = small_replica();
  data::ShardedStream view([&dataset]() { return std::make_unique<DatasetStream>(dataset); },
                           /*shard=*/0, /*num_shards=*/2);
  std::size_t count = 0;
  std::size_t expected_index = 0;
  while (auto sample = view.next()) {
    EXPECT_EQ(sample->label, dataset.label(expected_index));
    expected_index += 2;
    ++count;
  }
  EXPECT_EQ(count, (dataset.size() + 1) / 2);
  view.reset();
  EXPECT_TRUE(view.next().has_value());
}

TEST(ShardedStreamTest, RejectsInvalidShardIndices) {
  const auto dataset = small_replica();
  DatasetStream source(dataset);
  EXPECT_THROW(data::ShardedStream(source, 0, 0), std::invalid_argument);
  EXPECT_THROW(data::ShardedStream(source, 2, 2), std::invalid_argument);
  EXPECT_THROW(data::ShardedStream(source, 7, 3), std::invalid_argument);
}

}  // namespace
