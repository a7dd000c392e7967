/// \file test_parallel_shard.cpp
/// Worker-threaded sharded training (PR 9): dedicated shard-worker threads,
/// each pulling a private owning ShardedStream, must land on exactly the
/// serial fit_stream artifact — at any worker count, backend, prototype
/// count and retrain depth — and a failure on any worker must surface as a
/// clean exception, not a hang or torn state.  The suite carries the
/// `concurrency` CTest label so the ThreadSanitizer CI row runs it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/options.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "graph/generators.hpp"
#include "support/proptest.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd;
using data::DatasetStream;
using data::GraphDataset;

[[nodiscard]] fs::path fresh_temp_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("graphhd_pshard_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

[[nodiscard]] std::string artifact_of(const core::GraphHdModel& model) {
  std::ostringstream out;
  core::save_model(model, out);
  return out.str();
}

[[nodiscard]] GraphDataset parallel_dataset(std::uint64_t seed, std::size_t count = 26) {
  data::GeneratorStream stream(count, 2, seed,
                               [](std::size_t, std::size_t label, hdc::Rng& rng) {
                                 graph::RmatParams params;
                                 params.a = 0.4 + 0.1 * static_cast<double>(label);
                                 params.b = 0.2;
                                 params.c = 0.2;
                                 return graph::rmat(18, 40, params, rng);
                               });
  return data::materialize(stream);
}

/// Thread-safe opener: each call is a private cursor over the one shared,
/// immutable materialized dataset.
[[nodiscard]] data::StreamOpener opener_of(const GraphDataset& dataset) {
  return [&dataset]() -> std::unique_ptr<data::GraphStream> {
    return std::make_unique<DatasetStream>(dataset);
  };
}

/// Crash injector for concurrent pulls: the budget is shared across every
/// stream the opener hands out, so one of the racing shard workers trips it
/// mid-fit wherever it lands.
class SharedBudgetStream final : public data::GraphStream {
 public:
  SharedBudgetStream(const GraphDataset& dataset,
                     std::shared_ptr<std::atomic<long long>> budget)
      : inner_(dataset), budget_(std::move(budget)) {}

  [[nodiscard]] std::optional<data::StreamSample> next() override {
    auto sample = inner_.next();
    if (sample.has_value() &&
        budget_->fetch_sub(1, std::memory_order_relaxed) <= 0) {
      throw std::runtime_error("injected parallel stream failure");
    }
    return sample;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }

 private:
  DatasetStream inner_;
  std::shared_ptr<std::atomic<long long>> budget_;
};

[[nodiscard]] data::StreamOpener failing_opener_of(
    const GraphDataset& dataset, std::shared_ptr<std::atomic<long long>> budget) {
  return [&dataset, budget]() -> std::unique_ptr<data::GraphStream> {
    return std::make_unique<SharedBudgetStream>(dataset, budget);
  };
}

// ---------------------------------------------------------------------------
// Bit-identity: parallel workers == serial, across every dial.
// ---------------------------------------------------------------------------

struct ParallelCase {
  std::size_t shards = 4;
  std::size_t workers = 2;  ///< 0 = auto.
  std::size_t chunk = 4;
  std::size_t retrain = 0;
  std::size_t prototypes = 1;
  bool packed = false;

  friend std::ostream& operator<<(std::ostream& out, const ParallelCase& c) {
    return out << "{shards " << c.shards << ", workers " << c.workers << ", chunk " << c.chunk
               << ", retrain " << c.retrain << ", prototypes " << c.prototypes << ", "
               << (c.packed ? "packed" : "dense") << "}";
  }
};

TEST(ParallelShard, BitIdenticalToSerialAcrossWorkerCounts) {
  const auto dataset = parallel_dataset(61);
  proptest::check<ParallelCase>(
      "parallel shard workers == serial fit_stream",
      [](hdc::Rng& rng, std::size_t i) {
        // The leading cases pin the worker-count sweep (auto, 2, 3, 8) at
        // shards=4; the randomized tail turns every other dial too.
        constexpr std::size_t kWorkerSweep[] = {0, 2, 3, 8};
        ParallelCase c;
        if (i < 4) {
          c.workers = kWorkerSweep[i];
          return c;
        }
        c.shards = 2 + rng.next_below(7);
        c.workers = rng.next_below(9);
        c.chunk = 1 + rng.next_below(8);
        c.retrain = rng.next_below(3);
        c.prototypes = 1 + rng.next_below(3);
        c.packed = rng.next_below(2) == 1;
        return c;
      },
      [](const ParallelCase& c) {
        std::vector<ParallelCase> smaller;
        const auto with = [&](auto mutate) {
          ParallelCase candidate = c;
          mutate(candidate);
          smaller.push_back(candidate);
        };
        if (c.shards > 2) with([](ParallelCase& s) { s.shards = 2; });
        if (c.workers > 2) with([](ParallelCase& s) { s.workers = 2; });
        if (c.retrain > 0) with([](ParallelCase& s) { s.retrain = 0; });
        if (c.prototypes > 1) with([](ParallelCase& s) { s.prototypes = 1; });
        return smaller;
      },
      [&](const ParallelCase& c, std::ostream& diag) {
        diag << c;
        core::GraphHdConfig config;
        config.dimension = 128;
        config.backend =
            c.packed ? core::Backend::kPackedBinary : core::Backend::kDenseBipolar;
        config.retrain_epochs = c.retrain;
        config.vectors_per_class = c.prototypes;

        // The reference is a one-shard fit, which bypasses the shard loop;
        // both sharded forms — the borrowed stream (fit_stream) and the
        // opener on worker threads — must land on its artifact.
        core::GraphHdModel serial(config, dataset.num_classes());
        DatasetStream stream(dataset);
        serial.fit_stream(stream, core::TrainOptions{.chunk = c.chunk});
        const std::string expected = artifact_of(serial);
        const auto stats_cover_every_shard = [&](const core::TrainStats& stats,
                                                 const char* form) {
          std::size_t samples = 0;
          for (const auto& shard : stats.shards) samples += shard.samples;
          if (stats.shards.size() == c.shards && samples == dataset.size()) return true;
          diag << " — " << form << " stats cover " << samples << " samples over "
               << stats.shards.size() << " shards (want " << dataset.size() << " over "
               << c.shards << ")";
          return false;
        };

        core::TrainStats borrowed_stats;
        core::GraphHdModel borrowed(config, dataset.num_classes());
        DatasetStream borrowed_stream(dataset);
        borrowed.fit_stream(borrowed_stream, core::TrainOptions{.chunk = c.chunk,
                                                                .shards = c.shards,
                                                                .stats = &borrowed_stats});
        if (artifact_of(borrowed) != expected) {
          diag << " — borrowed sharded artifact diverges from serial";
          return false;
        }
        if (!stats_cover_every_shard(borrowed_stats, "borrowed")) return false;
        if (borrowed_stats.workers_used != 1) {
          diag << " — borrowed form reports " << borrowed_stats.workers_used << " workers";
          return false;
        }

        core::TrainStats stats;
        core::TrainOptions options;
        options.chunk = c.chunk;
        options.shards = c.shards;
        options.workers = c.workers;
        options.stats = &stats;
        core::GraphHdModel parallel(config, dataset.num_classes());
        parallel.fit_stream_sharded(opener_of(dataset), options);
        if (artifact_of(parallel) != expected) {
          diag << " — parallel artifact diverges from serial";
          return false;
        }
        return stats_cover_every_shard(stats, "opener");
      },
      {.cases = 24, .min_cases = 4});
}

// ---------------------------------------------------------------------------
// Validation and failure paths.
// ---------------------------------------------------------------------------

TEST(ParallelShard, BorrowingFormRejectsWorkerThreads) {
  const auto dataset = parallel_dataset(67);
  core::GraphHdConfig config;
  config.dimension = 128;
  core::GraphHdModel model(config, dataset.num_classes());
  core::TrainOptions options;
  options.shards = 2;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    options.workers = workers;
    DatasetStream stream(dataset);
    EXPECT_THROW(model.fit_stream(stream, options), std::invalid_argument)
        << "borrowed single-cursor stream accepted workers=" << workers;
  }
}

TEST(ParallelShard, WorkerFailuresPropagateAndLeaveTheModelUnfitted) {
  const auto dataset = parallel_dataset(71);
  core::GraphHdConfig config;
  config.dimension = 128;

  core::GraphHdModel serial(config, dataset.num_classes());
  DatasetStream stream(dataset);
  serial.fit_stream(stream, core::TrainOptions{.chunk = 4});
  const std::string expected = artifact_of(serial);

  struct FailureCase {
    std::size_t shards;
    std::size_t workers;
    bool opener;
    long long budget;  ///< source samples pulled before the injected failure.
  };
  // A one-shard fit pulls the 26 samples once, so a budget of 12 fails it
  // after three 4-sample chunks.  4 shard views pull 4 x 26 samples; a
  // budget of 40 fails the second shard after the first one merged (or, on 4
  // workers, at least one racing worker mid-fit).
  for (const FailureCase& c : {FailureCase{4, 4, true, 40}, FailureCase{1, 1, false, 12},
                               FailureCase{4, 1, false, 40}, FailureCase{4, 1, true, 40}}) {
    SCOPED_TRACE(std::string(c.opener ? "opener" : "borrowed") + " shards " +
                 std::to_string(c.shards) + " workers " + std::to_string(c.workers));
    const core::TrainOptions options{.chunk = 4, .shards = c.shards, .workers = c.workers};
    core::GraphHdModel model(config, dataset.num_classes());
    auto budget = std::make_shared<std::atomic<long long>>(c.budget);
    try {
      if (c.opener) {
        model.fit_stream_sharded(failing_opener_of(dataset, budget), options);
      } else {
        SharedBudgetStream failing(dataset, budget);
        model.fit_stream(failing, options);
      }
      ADD_FAILURE() << "injected failure never surfaced";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("injected"), std::string::npos) << error.what();
    }

    // The failed fit must not leave the model half-trained: a clean rerun on
    // the same instance still produces the serial artifact.
    if (c.opener) {
      model.fit_stream_sharded(opener_of(dataset), options);
    } else {
      DatasetStream clean(dataset);
      model.fit_stream(clean, options);
    }
    EXPECT_EQ(artifact_of(model), expected);
  }
}

TEST(ParallelShard, CrashAndResumeStayBitIdenticalUnderWorkers) {
  const fs::path dir = fresh_temp_dir("resume");
  const auto dataset = parallel_dataset(73, 30);
  core::GraphHdConfig config;
  config.dimension = 128;

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 4});

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 3;
  options.workers = 3;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 4;

  // Which worker trips the shared budget (3 x 30 pulls in flight) is a race
  // — the resumed result must be bit-identical regardless of where the
  // crash landed.
  core::GraphHdModel crashed(config, dataset.num_classes());
  auto budget = std::make_shared<std::atomic<long long>>(55);
  EXPECT_THROW(crashed.fit_stream_sharded(failing_opener_of(dataset, budget), options),
               std::runtime_error);

  options.resume = true;
  core::GraphHdModel resumed(config, dataset.num_classes());
  resumed.fit_stream_sharded(opener_of(dataset), options);
  EXPECT_EQ(artifact_of(resumed), artifact_of(reference));
  for (int k = 0; k < 3; ++k) {
    fs::path shard_file = options.checkpoint;
    shard_file += ".shard" + std::to_string(k);
    EXPECT_FALSE(fs::exists(shard_file)) << shard_file << " not cleaned up";
  }
  fs::remove_all(dir);
}

}  // namespace
