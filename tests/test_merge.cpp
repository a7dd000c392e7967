/// \file test_merge.cpp
/// The merge layer of PR 8's sharded map-reduce training: accumulator-level
/// merges are exactly equivalent to interleaved adds, GraphHdModel::merge is
/// commutative and associative on serialized state, and the sharded fit
/// (fit_stream with shards > 1, and the opener form fit_stream_sharded) is
/// bit-identical to the serial fit at any shard count, chunk size, backend,
/// kernel variant, prototype count and retrain depth.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/options.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "graph/generators.hpp"
#include "hdc/packed.hpp"
#include "hdc/kernels/kernels.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd;
using data::DatasetStream;
using data::GraphDataset;
using hdc::BundleAccumulator;

/// The model's serialized v3 artifact — the bit-identity yardstick (covers
/// config, every counter, add counts, parities and replica cursors).
[[nodiscard]] std::string artifact_of(const core::GraphHdModel& model) {
  std::ostringstream out;
  core::save_model(model, out);
  return out.str();
}

[[nodiscard]] core::GraphHdConfig merge_config(core::Backend backend,
                                               std::size_t vectors_per_class = 1,
                                               std::size_t retrain = 0) {
  core::GraphHdConfig config;
  config.dimension = 256;
  config.backend = backend;
  config.vectors_per_class = vectors_per_class;
  config.retrain_epochs = retrain;
  return config;
}

/// Deterministic labeled dataset with genuine per-class structure (R-MAT
/// skew varies by label) — merges must be exact regardless, but structure
/// keeps retraining epochs non-trivial.
[[nodiscard]] GraphDataset random_dataset(std::uint64_t seed, std::size_t count,
                                          std::size_t classes) {
  data::GeneratorStream stream(
      count, classes, seed, [](std::size_t, std::size_t label, hdc::Rng& rng) {
        graph::RmatParams params;
        params.a = 0.4 + 0.05 * static_cast<double>(label);
        params.b = 0.2;
        params.c = 0.2;
        return graph::rmat(20, 48, params, rng);
      });
  return data::materialize(stream);
}

// ---------------------------------------------------------------------------
// Accumulator level
// ---------------------------------------------------------------------------

TEST(BundleAccumulatorMerge, EqualsInterleavedAdds) {
  hdc::Rng rng(101);
  std::vector<hdc::PackedHypervector> inputs;
  for (int i = 0; i < 7; ++i) inputs.push_back(hdc::PackedHypervector::random(128, rng));

  BundleAccumulator left(128);
  BundleAccumulator right(128);
  BundleAccumulator reference(128);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    (i % 2 == 0 ? left : right).add(inputs[i]);
    reference.add(inputs[i]);
  }
  left.merge(right);
  ASSERT_EQ(left.count(), reference.count());
  for (std::size_t d = 0; d < 128; ++d) {
    ASSERT_EQ(left.counts()[d], reference.counts()[d]) << "component " << d;
  }
}

TEST(BundleAccumulatorMerge, RejectsDimensionMismatch) {
  BundleAccumulator a(64);
  BundleAccumulator b(128);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Model level: merge semantics
// ---------------------------------------------------------------------------

class ModelMerge : public ::testing::TestWithParam<core::Backend> {};

TEST_P(ModelMerge, TwoDisjointFitsMergeToTheSerialModel) {
  const auto dataset = random_dataset(7, 24, 2);
  const auto config = merge_config(GetParam());

  core::GraphHdModel serial(config, dataset.num_classes());
  DatasetStream serial_stream(dataset);
  serial.fit_stream(serial_stream, core::TrainOptions{.chunk = 5});

  // Round-robin halves via ShardedStream — the same partition the sharded
  // trainer uses.
  core::GraphHdModel even(config, dataset.num_classes());
  core::GraphHdModel odd(config, dataset.num_classes());
  DatasetStream source(dataset);
  {
    data::ShardedStream half(source, 0, 2);
    even.fit_stream(half, core::TrainOptions{.chunk = 5});
  }
  {
    data::ShardedStream half(source, 1, 2);
    odd.fit_stream(half, core::TrainOptions{.chunk = 5});
  }
  even.merge(std::move(odd));
  EXPECT_EQ(artifact_of(even), artifact_of(serial));
}

TEST_P(ModelMerge, RejectsConfigAndClassMismatches) {
  const auto dataset = random_dataset(9, 8, 2);
  const auto config = merge_config(GetParam());

  core::GraphHdModel model(config, 2);
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 4});

  auto other_dimension = config;
  other_dimension.dimension = 512;
  EXPECT_THROW(model.merge(core::GraphHdModel(other_dimension, 2)), std::invalid_argument);

  auto other_seed = config;
  other_seed.seed = config.seed + 1;
  EXPECT_THROW(model.merge(core::GraphHdModel(other_seed, 2)), std::invalid_argument);

  EXPECT_THROW(model.merge(core::GraphHdModel(config, 3)), std::invalid_argument);
}

TEST_P(ModelMerge, MergingAnEmptyModelIsIdentity) {
  const auto dataset = random_dataset(11, 12, 2);
  const auto config = merge_config(GetParam());
  core::GraphHdModel model(config, dataset.num_classes());
  DatasetStream stream(dataset);
  model.fit_stream(stream, core::TrainOptions{.chunk = 4});
  const std::string before = artifact_of(model);
  model.merge(core::GraphHdModel(config, dataset.num_classes()));
  EXPECT_EQ(artifact_of(model), before);
}

INSTANTIATE_TEST_SUITE_P(Backends, ModelMerge,
                         ::testing::Values(core::Backend::kDenseBipolar,
                                           core::Backend::kPackedBinary),
                         [](const auto& info) {
                           return info.param == core::Backend::kDenseBipolar ? "dense" : "packed";
                         });

// ---------------------------------------------------------------------------
// Properties: commutativity / associativity, sharded == serial
// ---------------------------------------------------------------------------

struct MergeOrderCase {
  core::Backend backend = core::Backend::kDenseBipolar;
  std::size_t parts = 2;
  std::size_t samples = 12;
  std::uint64_t seed = 0;

  friend std::ostream& operator<<(std::ostream& out, const MergeOrderCase& c) {
    return out << "{backend=" << (c.backend == core::Backend::kDenseBipolar ? "dense" : "packed")
               << " parts=" << c.parts << " samples=" << c.samples << " seed=" << c.seed << "}";
  }
};

TEST(MergeProperty, CommutativeAndAssociativeInAnyOrder) {
  proptest::check<MergeOrderCase>(
      "merge order-independence",
      [](hdc::Rng& rng, std::size_t) {
        MergeOrderCase c;
        c.backend = rng.next_below(2) == 0 ? core::Backend::kDenseBipolar
                                        : core::Backend::kPackedBinary;
        c.parts = 2 + rng.next_below(3);             // 2..4
        c.samples = c.parts * (2 + rng.next_below(5));
        c.seed = rng();
        return c;
      },
      [](const MergeOrderCase& c) {
        std::vector<MergeOrderCase> smaller;
        if (c.parts > 2) {
          MergeOrderCase s = c;
          s.parts -= 1;
          smaller.push_back(s);
        }
        if (c.samples > c.parts) {
          MergeOrderCase s = c;
          s.samples -= c.parts;
          smaller.push_back(s);
        }
        return smaller;
      },
      [](const MergeOrderCase& c, std::ostream& diag) {
        diag << c;
        const auto dataset = random_dataset(c.seed, c.samples, 2);
        const auto config = merge_config(c.backend);

        // Fitting is deterministic, so "a fresh copy of part k" is a refit.
        DatasetStream source(dataset);
        const auto fit_part = [&](std::size_t part) {
          core::GraphHdModel model(config, dataset.num_classes());
          data::ShardedStream shard(source, part, c.parts);
          model.fit_stream(shard, core::TrainOptions{.chunk = 3});
          return model;
        };

        const auto merged_in = [&](const std::vector<std::size_t>& order) {
          core::GraphHdModel result = fit_part(order[0]);
          for (std::size_t i = 1; i < order.size(); ++i) result.merge(fit_part(order[i]));
          return artifact_of(result);
        };

        std::vector<std::size_t> ascending(c.parts);
        for (std::size_t i = 0; i < c.parts; ++i) ascending[i] = i;
        std::vector<std::size_t> descending(ascending.rbegin(), ascending.rend());

        const std::string forward = merged_in(ascending);
        if (merged_in(descending) != forward) {
          diag << " — descending merge order diverged";
          return false;
        }

        // Associativity: fold the parts pairwise into two subtrees first.
        if (c.parts >= 3) {
          core::GraphHdModel left = fit_part(0);
          left.merge(fit_part(1));
          core::GraphHdModel right = fit_part(2);
          for (std::size_t p = 3; p < c.parts; ++p) right.merge(fit_part(p));
          left.merge(std::move(right));
          if (artifact_of(left) != forward) {
            diag << " — tree-shaped merge diverged";
            return false;
          }
        }
        return true;
      },
      {.cases = 12});
}

struct ShardedCase {
  core::Backend backend = core::Backend::kDenseBipolar;
  std::size_t kernel = 0;  ///< index into the supported compiled variants.
  std::size_t shards = 1;
  std::size_t chunk = 4;
  std::size_t vectors_per_class = 1;
  std::size_t retrain = 0;
  std::size_t samples = 12;
  std::size_t classes = 2;
  bool prefetch = true;
  std::uint64_t seed = 0;

  friend std::ostream& operator<<(std::ostream& out, const ShardedCase& c) {
    return out << "{backend=" << (c.backend == core::Backend::kDenseBipolar ? "dense" : "packed")
               << " kernel=" << c.kernel << " shards=" << c.shards << " chunk=" << c.chunk
               << " vpc=" << c.vectors_per_class << " retrain=" << c.retrain
               << " samples=" << c.samples << " classes=" << c.classes
               << " prefetch=" << c.prefetch << " seed=" << c.seed << "}";
  }
};

[[nodiscard]] std::vector<const hdc::kernels::KernelOps*> supported_kernels() {
  std::vector<const hdc::kernels::KernelOps*> supported;
  for (const auto* ops : hdc::kernels::compiled_variants()) {
    if (ops->supported()) supported.push_back(ops);
  }
  return supported;
}

TEST(MergeProperty, ShardedFitIsBitIdenticalToSerial) {
  const auto kernels = supported_kernels();
  const auto* startup = &hdc::kernels::active();
  proptest::check<ShardedCase>(
      "sharded fit_stream == serial fit_stream",
      [&](hdc::Rng& rng, std::size_t i) {
        ShardedCase c;
        // Leading deterministic sweep: every shard count 1..4 on both
        // backends is guaranteed each run; the tail randomizes the rest.
        if (i < 8) {
          c.backend = i % 2 == 0 ? core::Backend::kDenseBipolar : core::Backend::kPackedBinary;
          c.shards = 1 + i / 2;
          c.seed = 1000 + i;
          return c;
        }
        c.backend = rng.next_below(2) == 0 ? core::Backend::kDenseBipolar
                                        : core::Backend::kPackedBinary;
        c.kernel = rng.next_below(kernels.size());
        c.shards = 1 + rng.next_below(5);
        c.chunk = 1 + rng.next_below(8);
        c.vectors_per_class = 1 + rng.next_below(3);
        c.retrain = rng.next_below(3);
        c.samples = 8 + rng.next_below(28);
        c.classes = 2 + rng.next_below(2);
        c.prefetch = rng.next_below(2) == 0;
        c.seed = rng();
        return c;
      },
      [](const ShardedCase& c) {
        std::vector<ShardedCase> smaller;
        for (auto member : {&ShardedCase::shards, &ShardedCase::vectors_per_class,
                            &ShardedCase::retrain}) {
          if (c.*member > (member == &ShardedCase::retrain ? 0u : 1u)) {
            ShardedCase s = c;
            s.*member -= 1;
            smaller.push_back(s);
          }
        }
        if (c.samples > 8) {
          ShardedCase s = c;
          s.samples = std::max<std::size_t>(8, c.samples / 2);
          smaller.push_back(s);
        }
        return smaller;
      },
      [&](const ShardedCase& c, std::ostream& diag) {
        diag << c;
        hdc::kernels::set_active(*kernels[c.kernel % kernels.size()]);
        const auto dataset = random_dataset(c.seed, c.samples, c.classes);
        auto config = merge_config(c.backend, c.vectors_per_class, c.retrain);

        core::TrainOptions serial_options;
        serial_options.chunk = c.chunk;
        serial_options.prefetch = c.prefetch;
        core::GraphHdModel serial(config, dataset.num_classes());
        DatasetStream serial_stream(dataset);
        serial.fit_stream(serial_stream, serial_options);

        core::TrainOptions sharded_options = serial_options;
        sharded_options.shards = c.shards;
        core::GraphHdModel sharded(config, dataset.num_classes());
        DatasetStream sharded_stream(dataset);
        sharded.fit_stream(sharded_stream, sharded_options);

        const bool identical = artifact_of(sharded) == artifact_of(serial);
        if (!identical) diag << " — sharded artifact diverged from serial";
        return identical;
      },
      {.cases = 28, .min_cases = 8});
  hdc::kernels::set_active(*startup);
}

TEST(MergeProperty, ShardedOpenerFormMatchesBorrowingForm) {
  const auto dataset = random_dataset(23, 18, 2);
  const auto config = merge_config(core::Backend::kDenseBipolar, /*vectors_per_class=*/2);

  core::TrainOptions options;
  options.chunk = 4;
  options.shards = 3;

  core::GraphHdModel borrowing(config, dataset.num_classes());
  DatasetStream stream(dataset);
  borrowing.fit_stream(stream, options);

  core::GraphHdModel opener_based(config, dataset.num_classes());
  opener_based.fit_stream_sharded(
      [&dataset]() { return std::make_unique<DatasetStream>(dataset); }, options);
  EXPECT_EQ(artifact_of(opener_based), artifact_of(borrowing));

  EXPECT_THROW(opener_based.fit_stream_sharded(data::StreamOpener{}, options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------------

TEST(OptionsShims, FitStreamValidatesOptions) {
  const auto dataset = random_dataset(37, 8, 2);
  const auto config = merge_config(core::Backend::kDenseBipolar);
  core::GraphHdModel model(config, dataset.num_classes());
  DatasetStream stream(dataset);
  EXPECT_THROW(model.fit_stream(stream, core::TrainOptions{.chunk = 0}), std::invalid_argument);
  EXPECT_THROW(model.fit_stream(stream, core::TrainOptions{.shards = 0}), std::invalid_argument);
  EXPECT_THROW(model.fit_stream(stream, core::TrainOptions{.checkpoint_interval = 0}),
               std::invalid_argument);
  EXPECT_THROW(model.fit_stream(stream, core::TrainOptions{.resume = true}),
               std::invalid_argument);
}

}  // namespace
