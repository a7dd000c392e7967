/// \file test_checkpoint.cpp
/// Counter checkpoint/resume (PR 8): a fit killed mid-ingest resumes from
/// its last checkpoint to a model bit-identical to an uninterrupted fit;
/// corrupt checkpoints (truncations, byte flips) either fail with a clean
/// std::runtime_error or deserialize to exactly the saved state — never
/// silently to a different model.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
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
                       ("graphhd_ckpt_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

[[nodiscard]] std::string artifact_of(const core::GraphHdModel& model) {
  std::ostringstream out;
  core::save_model(model, out);
  return out.str();
}

[[nodiscard]] core::GraphHdConfig checkpoint_config(core::Backend backend,
                                                    std::size_t retrain = 0) {
  core::GraphHdConfig config;
  config.dimension = 256;
  config.backend = backend;
  config.retrain_epochs = retrain;
  return config;
}

[[nodiscard]] GraphDataset checkpoint_dataset(std::uint64_t seed, std::size_t count = 24) {
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

/// Crash injector: forwards the source until `budget` samples have been
/// served in total (across resets — retrain replays keep spending it), then
/// throws.  Exhaustion pulls (nullopt) are free.
class FailAfter final : public data::GraphStream {
 public:
  FailAfter(data::GraphStream& source, std::size_t budget)
      : source_(&source), budget_(budget) {}

  [[nodiscard]] std::optional<data::StreamSample> next() override {
    auto sample = source_->next();
    if (sample.has_value()) {
      if (served_ == budget_) throw std::runtime_error("injected stream failure");
      ++served_;
    }
    return sample;
  }
  void reset() override { source_->reset(); }
  [[nodiscard]] std::size_t num_classes() const override { return source_->num_classes(); }

 private:
  data::GraphStream* source_;
  std::size_t budget_;
  std::size_t served_ = 0;
};

// ---------------------------------------------------------------------------
// save_checkpoint / resume_checkpoint round trip
// ---------------------------------------------------------------------------

TEST(Checkpoint, SaveResumeRoundTripsModelAndProgress) {
  const fs::path dir = fresh_temp_dir("roundtrip");
  const auto dataset = checkpoint_dataset(3);
  for (const auto backend : {core::Backend::kDenseBipolar, core::Backend::kPackedBinary}) {
    core::GraphHdModel model(checkpoint_config(backend), dataset.num_classes());
    DatasetStream stream(dataset);
    model.fit_stream(stream, core::TrainOptions{.chunk = 6});

    core::CheckpointProgress progress;
    progress.samples_consumed = 17;
    progress.bundle_complete = true;
    const fs::path path = dir / "state.ghd";
    core::save_checkpoint(model, progress, path);

    const auto resumed = core::resume_checkpoint(path);
    EXPECT_EQ(resumed.progress.samples_consumed, 17u);
    EXPECT_TRUE(resumed.progress.bundle_complete);
    EXPECT_EQ(artifact_of(resumed.model), artifact_of(model));
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, PlainModelArtifactIsRejected) {
  const fs::path dir = fresh_temp_dir("plain");
  const auto dataset = checkpoint_dataset(5);
  core::GraphHdModel model(checkpoint_config(core::Backend::kDenseBipolar),
                           dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 8});
  const fs::path path = dir / "model.ghd";
  core::save_model(model, path);

  // A checkpoint *is* a valid model artifact (old loaders ignore the
  // progress section) but the converse must fail loudly.
  EXPECT_NO_THROW((void)core::load_model(path));
  try {
    (void)core::resume_checkpoint(path);
    FAIL() << "resume_checkpoint accepted a plain model artifact";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("progress"), std::string::npos) << error.what();
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, CheckpointLoadsAsAPlainModelArtifact) {
  // Forward compatibility in the other direction: load_model and
  // inspect_model must both handle an artifact carrying a progress section.
  const fs::path dir = fresh_temp_dir("compat");
  const auto dataset = checkpoint_dataset(7);
  core::GraphHdModel model(checkpoint_config(core::Backend::kDenseBipolar),
                           dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 8});

  const fs::path path = dir / "ckpt.ghd";
  core::save_checkpoint(model, {.samples_consumed = 9, .bundle_complete = false}, path);
  const auto loaded = core::load_model(path);
  EXPECT_EQ(artifact_of(loaded), artifact_of(model));

  const auto info = core::inspect_model(path);
  EXPECT_TRUE(info.checksums_ok);
  bool saw_progress = false;
  for (const auto& section : info.sections) saw_progress |= section.name == "progress";
  EXPECT_TRUE(saw_progress);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash/resume bit-identity
// ---------------------------------------------------------------------------

class CheckpointResume : public ::testing::TestWithParam<core::Backend> {};

TEST_P(CheckpointResume, MidIngestCrashResumesBitIdentical) {
  const fs::path dir = fresh_temp_dir("crash");
  const auto dataset = checkpoint_dataset(13, 30);
  const auto config = checkpoint_config(GetParam());

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 4});

  core::TrainOptions options;
  options.chunk = 4;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 8;

  core::GraphHdModel crashed(config, dataset.num_classes());
  DatasetStream source(dataset);
  FailAfter failing(source, /*budget=*/19);  // past two checkpoint intervals.
  EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
  ASSERT_TRUE(fs::exists(options.checkpoint)) << "no checkpoint written before the crash";

  options.resume = true;
  core::GraphHdModel resumed(config, dataset.num_classes());
  DatasetStream fresh(dataset);
  resumed.fit_stream(fresh, options);
  EXPECT_EQ(artifact_of(resumed), artifact_of(reference));
  EXPECT_FALSE(fs::exists(options.checkpoint)) << "checkpoint not removed on success";
  fs::remove_all(dir);
}

TEST_P(CheckpointResume, CrashDuringRetrainResumesBitIdentical) {
  // Budget past the bundling pass: the crash lands in a retrain epoch, so
  // the resume adopts the bundle_complete checkpoint and reruns the
  // (deterministic) retraining from the merged counters.
  const fs::path dir = fresh_temp_dir("retrain_crash");
  const auto dataset = checkpoint_dataset(17, 20);
  const auto config = checkpoint_config(GetParam(), /*retrain=*/2);

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 5});

  core::TrainOptions options;
  options.chunk = 5;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 10;

  core::GraphHdModel crashed(config, dataset.num_classes());
  DatasetStream source(dataset);
  FailAfter failing(source, /*budget=*/27);  // 20 bundling + 7 into epoch 1.
  EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
  ASSERT_TRUE(fs::exists(options.checkpoint));
  {
    const auto persisted = core::resume_checkpoint(options.checkpoint);
    EXPECT_TRUE(persisted.progress.bundle_complete);
    EXPECT_EQ(persisted.progress.samples_consumed, dataset.size());
  }

  options.resume = true;
  core::GraphHdModel resumed(config, dataset.num_classes());
  DatasetStream fresh(dataset);
  resumed.fit_stream(fresh, options);
  EXPECT_EQ(artifact_of(resumed), artifact_of(reference));
  fs::remove_all(dir);
}

TEST_P(CheckpointResume, MissingCheckpointFileStartsFresh) {
  const fs::path dir = fresh_temp_dir("missing");
  const auto dataset = checkpoint_dataset(19);
  const auto config = checkpoint_config(GetParam());

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 6});

  core::TrainOptions options;
  options.chunk = 6;
  options.checkpoint = dir / "never_written.ghd";
  options.resume = true;
  core::GraphHdModel model(config, dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, options);
  EXPECT_EQ(artifact_of(model), artifact_of(reference));
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Backends, CheckpointResume,
                         ::testing::Values(core::Backend::kDenseBipolar,
                                           core::Backend::kPackedBinary),
                         [](const auto& info) {
                           return info.param == core::Backend::kDenseBipolar ? "dense" : "packed";
                         });

TEST(CheckpointResumeErrors, ConfigMismatchIsRejected) {
  const fs::path dir = fresh_temp_dir("mismatch");
  const auto dataset = checkpoint_dataset(23);

  core::TrainOptions options;
  options.chunk = 4;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 8;
  {
    core::GraphHdModel writer(checkpoint_config(core::Backend::kDenseBipolar),
                              dataset.num_classes());
    DatasetStream source(dataset);
    FailAfter failing(source, 13);
    EXPECT_THROW(writer.fit_stream(failing, options), std::runtime_error);
    ASSERT_TRUE(fs::exists(options.checkpoint));
  }

  auto other = checkpoint_config(core::Backend::kDenseBipolar);
  other.dimension = 512;
  options.resume = true;
  core::GraphHdModel mismatched(other, dataset.num_classes());
  DatasetStream stream(dataset);
  EXPECT_THROW(mismatched.fit_stream(stream, options), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CheckpointResumeErrors, ResumingAgainstAShorterStreamIsRejected) {
  const fs::path dir = fresh_temp_dir("shorter");
  const auto dataset = checkpoint_dataset(29, 24);
  const auto config = checkpoint_config(core::Backend::kDenseBipolar);

  core::TrainOptions options;
  options.chunk = 4;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 8;
  {
    core::GraphHdModel writer(config, dataset.num_classes());
    DatasetStream source(dataset);
    FailAfter failing(source, 17);
    EXPECT_THROW(writer.fit_stream(failing, options), std::runtime_error);
    ASSERT_TRUE(fs::exists(options.checkpoint));
  }

  // A stream with fewer samples than the checkpoint consumed cannot be the
  // one the checkpoint came from.
  const auto shorter = checkpoint_dataset(29, 6);
  options.resume = true;
  core::GraphHdModel resumed(config, shorter.num_classes());
  DatasetStream stream(shorter);
  EXPECT_THROW(resumed.fit_stream(stream, options), std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sharded fit + checkpointing
// ---------------------------------------------------------------------------

TEST(ShardedCheckpoint, MidShardCrashResumesBitIdentical) {
  const fs::path dir = fresh_temp_dir("sharded");
  const auto dataset = checkpoint_dataset(31, 28);
  const auto config = checkpoint_config(core::Backend::kDenseBipolar);

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 4});

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 2;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 8;

  // Each shard pass pulls all 28 source samples (skipping the other
  // shard's); a budget of 40 crashes inside shard 1's bundling.
  core::GraphHdModel crashed(config, dataset.num_classes());
  DatasetStream source(dataset);
  FailAfter failing(source, 40);
  EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
  EXPECT_TRUE(fs::exists(dir / "ckpt.ghd.shard0"))
      << "completed shard 0 left no bundle_complete checkpoint";

  options.resume = true;
  core::GraphHdModel resumed(config, dataset.num_classes());
  DatasetStream fresh(dataset);
  resumed.fit_stream(fresh, options);
  EXPECT_EQ(artifact_of(resumed), artifact_of(reference));
  EXPECT_FALSE(fs::exists(dir / "ckpt.ghd.shard0")) << "shard checkpoints not cleaned up";
  EXPECT_FALSE(fs::exists(dir / "ckpt.ghd.shard1"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Shard-topology-safe resume (progress v2)
// ---------------------------------------------------------------------------

TEST(CheckpointTopology, ProgressTopologyRoundTrips) {
  const fs::path dir = fresh_temp_dir("topology");
  const auto dataset = checkpoint_dataset(41);
  core::GraphHdModel model(checkpoint_config(core::Backend::kDenseBipolar),
                           dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 6});

  const fs::path path = dir / "topo.ghd";
  core::save_checkpoint(
      model,
      {.samples_consumed = 17, .bundle_complete = true, .shard_count = 4, .shard_index = 2},
      path);
  const auto resumed = core::resume_checkpoint(path);
  EXPECT_EQ(resumed.progress.shard_count, 4u);
  EXPECT_EQ(resumed.progress.shard_index, 2u);

  // Inconsistent topologies must never reach disk.
  EXPECT_THROW(core::save_checkpoint(model, {.shard_count = 0}, path), std::invalid_argument);
  EXPECT_THROW(
      core::save_checkpoint(model, {.shard_count = 2, .shard_index = 2}, path),
      std::invalid_argument);
  fs::remove_all(dir);
}

TEST(CheckpointTopology, ResumeUnderDifferentShardTopologyIsRejected) {
  // Regression: before progress v2 a checkpoint written under --shards 2
  // resumed silently under --shards 3 — shard 0's counters were adopted but
  // samples_consumed then indexed a *3-way* round-robin view, skipping and
  // duplicating samples without any error.  The topology now rides in the
  // progress section and the mismatch must throw.
  const fs::path dir = fresh_temp_dir("topo_mismatch");
  const auto dataset = checkpoint_dataset(43, 28);
  const auto config = checkpoint_config(core::Backend::kDenseBipolar);

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 2;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 8;
  {
    core::GraphHdModel crashed(config, dataset.num_classes());
    DatasetStream source(dataset);
    FailAfter failing(source, 40);  // inside shard 1's bundling pass.
    EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
    ASSERT_TRUE(fs::exists(dir / "ckpt.ghd.shard0"));
  }

  options.resume = true;
  options.shards = 3;  // same checkpoint file names, different topology.
  core::GraphHdModel resumed(config, dataset.num_classes());
  DatasetStream stream(dataset);
  try {
    resumed.fit_stream(stream, options);
    FAIL() << "resume adopted a shard checkpoint written under a different topology";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard"), std::string::npos) << error.what();
  }
  fs::remove_all(dir);
}

TEST(CheckpointTopology, ShrinkingShardsAfterACrashIsRejectedNotSilentlyWrong) {
  // The shrink direction is the nasty one: every .shard<k> file a narrower
  // rerun looks for exists (left by the wider run), so without the topology
  // check the resume would "succeed" on stale state.
  const fs::path dir = fresh_temp_dir("shrink");
  const auto dataset = checkpoint_dataset(47, 28);
  const auto config = checkpoint_config(core::Backend::kDenseBipolar);

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 4;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 4;
  {
    core::GraphHdModel crashed(config, dataset.num_classes());
    DatasetStream source(dataset);
    FailAfter failing(source, 100);  // inside shard 3 (4 shards x 28 pulls).
    EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
    ASSERT_TRUE(fs::exists(dir / "ckpt.ghd.shard0"));
    ASSERT_TRUE(fs::exists(dir / "ckpt.ghd.shard2"));
  }

  core::TrainOptions narrower = options;
  narrower.resume = true;
  narrower.shards = 2;
  core::GraphHdModel resumed(config, dataset.num_classes());
  DatasetStream stream(dataset);
  EXPECT_THROW(resumed.fit_stream(stream, narrower), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CheckpointTopology, SuccessfulRunSweepsStaleShardFilesFromAWiderRun) {
  // A fresh (non-resuming) narrower run must not leave the wider run's
  // .shard2/.shard3 behind: a later --shards 4 --resume would otherwise
  // adopt those stale counters as if they were its own.
  const fs::path dir = fresh_temp_dir("stale_sweep");
  const auto dataset = checkpoint_dataset(53, 28);
  const auto config = checkpoint_config(core::Backend::kDenseBipolar);

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 4;
  options.checkpoint = dir / "ckpt.ghd";
  options.checkpoint_interval = 4;
  {
    core::GraphHdModel crashed(config, dataset.num_classes());
    DatasetStream source(dataset);
    FailAfter failing(source, 100);
    EXPECT_THROW(crashed.fit_stream(failing, options), std::runtime_error);
    ASSERT_TRUE(fs::exists(dir / "ckpt.ghd.shard2"));
  }

  core::GraphHdModel reference(config, dataset.num_classes());
  DatasetStream reference_stream(dataset);
  reference.fit_stream(reference_stream, core::TrainOptions{.chunk = 4});

  core::TrainOptions narrower = options;
  narrower.shards = 2;  // fresh run (no resume) — overwrites shard0/shard1.
  core::GraphHdModel rerun(config, dataset.num_classes());
  DatasetStream stream(dataset);
  rerun.fit_stream(stream, narrower);
  EXPECT_EQ(artifact_of(rerun), artifact_of(reference));
  for (int k = 0; k < 4; ++k) {
    fs::path shard_file = narrower.checkpoint;
    shard_file += ".shard" + std::to_string(k);
    EXPECT_FALSE(fs::exists(shard_file))
        << shard_file << " survived a successful sharded fit";
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Corruption fuzz: truncations and byte flips
// ---------------------------------------------------------------------------

struct CorruptionCase {
  bool truncate = false;
  std::size_t position = 0;  ///< truncation length / flipped byte offset.
  std::uint8_t mask = 0x01;  ///< xor mask for flips.

  friend std::ostream& operator<<(std::ostream& out, const CorruptionCase& c) {
    return out << (c.truncate ? "{truncate at " : "{flip byte ") << c.position << " mask 0x"
               << std::hex << static_cast<unsigned>(c.mask) << std::dec << "}";
  }
};

TEST(CheckpointFuzz, CorruptCheckpointsFailCleanlyOrLoadExactly) {
  const fs::path dir = fresh_temp_dir("fuzz");
  const auto dataset = checkpoint_dataset(37);
  core::GraphHdModel model(checkpoint_config(core::Backend::kDenseBipolar),
                           dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 6});

  const fs::path pristine_path = dir / "pristine.ghd";
  core::save_checkpoint(model, {.samples_consumed = 12, .bundle_complete = false},
                        pristine_path);
  std::string pristine;
  {
    std::ifstream in(pristine_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    pristine = buffer.str();
  }
  ASSERT_FALSE(pristine.empty());
  const std::string expected_artifact = artifact_of(model);

  proptest::check<CorruptionCase>(
      "corrupt checkpoint -> clean error or exact state",
      [&](hdc::Rng& rng, std::size_t i) {
        CorruptionCase c;
        c.truncate = i % 2 == 0;
        c.position = rng.next_below(pristine.size());
        c.mask = static_cast<std::uint8_t>(1 + rng.next_below(255));
        return c;
      },
      [](const CorruptionCase&) { return std::vector<CorruptionCase>{}; },
      [&](const CorruptionCase& c, std::ostream& diag) {
        diag << c;
        std::string bytes = pristine;
        if (c.truncate) {
          bytes.resize(c.position);
        } else {
          bytes[c.position] = static_cast<char>(bytes[c.position] ^ c.mask);
        }
        const fs::path corrupt_path = dir / "corrupt.ghd";
        {
          std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
          out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        try {
          const auto resumed = core::resume_checkpoint(corrupt_path);
          // Corruption the checksums cannot see (alignment padding) must
          // still deserialize to exactly the saved state.
          if (artifact_of(resumed.model) != expected_artifact) {
            diag << " — loaded a DIFFERENT model without an error";
            return false;
          }
          if (resumed.progress.samples_consumed != 12 || resumed.progress.bundle_complete) {
            diag << " — loaded different progress without an error";
            return false;
          }
          return true;
        } catch (const std::runtime_error&) {
          return true;  // clean, typed failure — the contract.
        }
        // Anything else (crash, std::bad_alloc, logic_error) fails the test
        // by escaping the property.
      },
      {.cases = 64});
  fs::remove_all(dir);
}

}  // namespace
