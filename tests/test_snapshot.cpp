/// Tests for the trainer/serving split (core/snapshot.hpp): the immutable
/// InferenceSnapshot must be bit-identical to the trainer's own predictions
/// across every backend / metric / prototype-count combination, support the
/// hot-swap pattern, upgrade back into a trainer, and round-trip through the
/// binary v3 artifact (full read AND zero-copy mmap) without changing a
/// single output bit.

#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "graph/generators.hpp"
#include "support/proptest.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd::core;
using graphhd::data::DatasetStream;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
namespace hdc = graphhd::hdc;
namespace proptest = graphhd::proptest;

GraphHdConfig base_config() {
  GraphHdConfig config;
  config.dimension = 512;
  config.seed = 0x5aa9;
  return config;
}

GraphDataset toy_dataset(std::size_t per_class) {
  GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < per_class; ++i) {
    dataset.add(star_graph(8 + i % 4), 0);
    dataset.add(cycle_graph(8 + i % 4), 1);
    dataset.add(path_graph(8 + i % 4), 2);
  }
  return dataset;
}

GraphHdModel trained_model(const GraphHdConfig& config) {
  GraphHdModel model(config, 3);
  model.fit(toy_dataset(6));
  return model;
}

void expect_predictions_equal(const Prediction& a, const Prediction& b, const char* what) {
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(a.score, b.score) << what;  // bit-identical doubles, not approximate.
  EXPECT_EQ(a.class_scores, b.class_scores) << what;
}

/// Classifies `g` the way a process holding only a snapshot does: an encoder
/// built from the snapshot's config, then the packed query.
Prediction predict_graph(const InferenceSnapshot& snapshot, const graphhd::graph::Graph& g) {
  GraphHdEncoder encoder(snapshot.config());
  return snapshot.predict_encoded(encoder.encode_packed(g));
}

/// The matrix the tentpole promises: every backend, every metric, quantized
/// and not, single and multiple prototypes — model.predict and the
/// snapshot's predict paths agree bit for bit.
TEST(Snapshot, MatchesModelAcrossTheConfigMatrix) {
  std::vector<GraphHdConfig> configs;
  for (const Backend backend : {Backend::kDenseBipolar, Backend::kPackedBinary}) {
    for (const auto metric : {hdc::Similarity::kCosine, hdc::Similarity::kInverseHamming,
                              hdc::Similarity::kDot}) {
      GraphHdConfig config = base_config();
      config.backend = backend;
      config.metric = metric;
      configs.push_back(config);
      config.vectors_per_class = 2;
      configs.push_back(config);
    }
  }
  {  // The non-quantized dense model exercises the counter-scoring path.
    GraphHdConfig config = base_config();
    config.quantized_model = false;
    configs.push_back(config);
    config.vectors_per_class = 3;
    configs.push_back(config);
  }

  const auto probes = toy_dataset(4);
  for (const auto& config : configs) {
    auto model = trained_model(config);
    const auto snapshot = model.snapshot();
    GraphHdEncoder encoder(snapshot->config());
    SCOPED_TRACE(std::string(to_string(config.backend)) + " metric=" +
                 std::to_string(static_cast<int>(config.metric)) + " vpc=" +
                 std::to_string(config.vectors_per_class) +
                 (config.quantized_model ? " quantized" : " raw"));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      expect_predictions_equal(model.predict(probes.graph(i)),
                               snapshot->predict_encoded(encoder.encode_packed(probes.graph(i))),
                               "single predict");
    }
    // Batch and stream paths run through the same snapshot.
    const auto batch_model = model.predict_batch(probes);
    const auto batch_snapshot = predict_dataset(*snapshot, encoder, probes);
    ASSERT_EQ(batch_model.size(), batch_snapshot.size());
    for (std::size_t i = 0; i < batch_model.size(); ++i) {
      expect_predictions_equal(batch_model[i], batch_snapshot[i], "predict_batch");
    }
    DatasetStream stream(probes);
    const auto streamed = collect_stream_predictions(snapshot, encoder, stream, {.chunk = 5});
    ASSERT_EQ(streamed.size(), batch_model.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      expect_predictions_equal(batch_model[i], streamed[i], "predict_stream");
    }
  }
}

TEST(Snapshot, CarriesTheTrainerState) {
  auto model = trained_model(base_config());
  const auto snapshot = model.snapshot();
  EXPECT_TRUE(snapshot->fitted());
  EXPECT_EQ(snapshot->num_classes(), 3u);
  EXPECT_EQ(snapshot->slots(), 3u);
  EXPECT_EQ(snapshot->dimension(), 512u);
  EXPECT_EQ(snapshot->words_per_slot(), 512u / 64u);
  EXPECT_EQ(snapshot->class_counts(), model.class_counts());
  EXPECT_EQ(snapshot->replica_cursors(), model.replica_cursors());
  for (std::size_t slot = 0; slot < snapshot->slots(); ++slot) {
    EXPECT_EQ(snapshot->counters(slot).size(), snapshot->dimension());
    EXPECT_EQ(snapshot->packed_words(slot).size(), snapshot->words_per_slot());
  }
  // The serving footprint is the packed rows: slots * d/8 bytes.
  EXPECT_EQ(snapshot->footprint_bytes(), 3u * (512u / 8u));
}

TEST(Snapshot, IsCachedUntilTheModelMutates) {
  auto model = trained_model(base_config());
  const auto first = model.snapshot();
  EXPECT_EQ(model.snapshot().get(), first.get()) << "repeat snapshot() must hit the cache";
  model.partial_fit(star_graph(9), 0);
  const auto second = model.snapshot();
  EXPECT_NE(second.get(), first.get()) << "mutation must invalidate the cache";
}

TEST(Snapshot, HotSwapServesOldStateUntilPublish) {
  // The serving pattern: a server pins snapshot A; the trainer keeps
  // learning; A's outputs never change until the trainer publishes B.
  auto model = trained_model(base_config());
  auto served = model.snapshot();
  const auto before = predict_graph(*served, star_graph(9));

  // Drift the model toward class 2 with extra samples.
  for (int i = 0; i < 32; ++i) model.partial_fit(star_graph(9), 2);
  expect_predictions_equal(predict_graph(*served, star_graph(9)), before,
                           "pinned snapshot drifted with the trainer");

  served = model.snapshot();
  const auto after = predict_graph(*served, star_graph(9));
  EXPECT_EQ(after.label, 2u) << "published snapshot must reflect the new training";
  expect_predictions_equal(after, model.predict(star_graph(9)), "post-swap parity");
}

TEST(Snapshot, EncoderCompatibilityContract) {
  const GraphHdConfig a = base_config();
  GraphHdConfig b = a;
  EXPECT_TRUE(encoder_compatible(a, b));
  b.metric = hdc::Similarity::kDot;  // scoring-only knob: still compatible.
  EXPECT_TRUE(encoder_compatible(a, b));
  b = a;
  b.dimension = 256;
  EXPECT_FALSE(encoder_compatible(a, b));
  b = a;
  b.seed = 1;
  EXPECT_FALSE(encoder_compatible(a, b));
  b = a;
  b.identifier = VertexIdentifier::kDegree;
  EXPECT_FALSE(encoder_compatible(a, b));
  b = a;
  b.neighborhood_rounds = 2;
  EXPECT_FALSE(encoder_compatible(a, b));
  b = a;
  b.backend = Backend::kPackedBinary;
  EXPECT_FALSE(encoder_compatible(a, b));
}

TEST(Snapshot, UpgradesBackIntoATrainer) {
  // model_from_snapshot must reproduce the full mutable state: identical
  // predictions now, and identical predictions after identical further
  // training on both copies.
  auto original = trained_model(base_config());
  auto upgraded = model_from_snapshot(*original.snapshot());
  expect_predictions_equal(original.predict(cycle_graph(9)), upgraded.predict(cycle_graph(9)),
                           "upgrade parity");
  original.partial_fit(star_graph(11), 1);
  upgraded.partial_fit(star_graph(11), 1);
  expect_predictions_equal(original.predict(star_graph(11)), upgraded.predict(star_graph(11)),
                           "post-training parity");
  EXPECT_EQ(original.class_counts(), upgraded.class_counts());
}

TEST(Snapshot, PipelineExposesTheSnapshot) {
  GraphHd classifier(base_config());
  EXPECT_THROW((void)classifier.snapshot(), std::logic_error);
  classifier.fit(toy_dataset(4));
  const auto snapshot = classifier.snapshot();
  EXPECT_EQ(predict_graph(*snapshot, star_graph(9)).label, classifier.predict(star_graph(9)));
}

// ---------------------------------------------------------------------------
// Property: v3 artifact round-trip is bit-identical, full read and mmap.
// ---------------------------------------------------------------------------

/// One randomized trained state: config knobs plus a counter seed.  The
/// model is built through restore_state (random accumulators) rather than
/// training, so the property covers states training would rarely produce
/// (ties, zero rows, negative-heavy rows) at proptest speed.
struct RoundTripCase {
  std::size_t dimension = 64;
  Backend backend = Backend::kDenseBipolar;
  hdc::Similarity metric = hdc::Similarity::kCosine;
  bool quantized = true;
  std::size_t num_classes = 2;
  std::size_t vectors_per_class = 1;
  std::uint64_t counter_seed = 0;
};

std::ostream& operator<<(std::ostream& out, const RoundTripCase& c) {
  return out << "d=" << c.dimension << " backend=" << static_cast<int>(c.backend)
             << " metric=" << static_cast<int>(c.metric) << " quantized=" << c.quantized
             << " classes=" << c.num_classes << " vpc=" << c.vectors_per_class
             << " counter_seed=" << c.counter_seed;
}

[[nodiscard]] RoundTripCase random_case(hdc::Rng& rng) {
  RoundTripCase c;
  c.dimension = 64 * (1 + rng.next_below(3));  // 64 / 128 / 192.
  c.backend = rng.next_below(2) == 0 ? Backend::kDenseBipolar : Backend::kPackedBinary;
  c.metric = static_cast<hdc::Similarity>(rng.next_below(3));
  // The packed backend is quantized by construction (validate() enforces it).
  c.quantized = c.backend == Backend::kPackedBinary || rng.next_below(2) == 0;
  c.num_classes = 2 + rng.next_below(3);
  c.vectors_per_class = 1 + rng.next_below(2);
  c.counter_seed = rng.next_below(1u << 30);
  return c;
}

[[nodiscard]] GraphHdModel model_from_case(const RoundTripCase& c) {
  GraphHdConfig config;
  config.dimension = c.dimension;
  config.backend = c.backend;
  config.metric = c.metric;
  config.quantized_model = c.quantized;
  config.vectors_per_class = c.vectors_per_class;
  config.seed = 0xbeef;
  GraphHdModel model(config, c.num_classes);

  hdc::Rng rng(c.counter_seed);
  const std::size_t slots = c.num_classes * c.vectors_per_class;
  std::vector<hdc::BundleAccumulator> accumulators;
  std::vector<std::size_t> sample_counts;
  std::vector<std::size_t> cursors;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<std::int32_t> counts(c.dimension);
    for (auto& value : counts) {
      value = static_cast<std::int32_t>(rng.next_below(11)) - 5;  // ties included.
    }
    const std::size_t add_count = rng.next_below(16);
    accumulators.push_back(
        hdc::BundleAccumulator::from_raw(std::move(counts), add_count, add_count % 2 == 1));
    sample_counts.push_back(add_count);
  }
  for (std::size_t klass = 0; klass < c.num_classes; ++klass) {
    cursors.push_back(rng.next_below(c.vectors_per_class));
  }
  model.restore_state(std::move(accumulators), std::move(sample_counts), std::move(cursors),
                      /*fitted=*/true);
  return model;
}

TEST(SnapshotProperty, V3RoundTripIsBitIdenticalReadAndMmap) {
  const fs::path path =
      fs::temp_directory_path() / ("graphhd_v3_prop_" + std::to_string(::getpid()) + ".ghd");
  proptest::check<RoundTripCase>(
      "random model -> save v3 -> load (read + mmap) -> bit-identical predictions",
      [](hdc::Rng& rng, std::size_t) { return random_case(rng); },
      [](const RoundTripCase&) { return std::vector<RoundTripCase>{}; },
      [&](const RoundTripCase& c, std::ostream& diag) {
        diag << c;
        auto model = model_from_case(c);
        save_model(model, path);

        const auto probes = toy_dataset(2);
        const auto expected = model.predict_batch(probes);

        bool ok = true;
        for (const auto mode : {SnapshotLoad::kRead, SnapshotLoad::kMmap}) {
          const auto snapshot = load_snapshot(path, mode);
          GraphHdEncoder encoder(snapshot->config());
          for (std::size_t i = 0; i < probes.size() && ok; ++i) {
            const auto actual = snapshot->predict_encoded(encoder.encode_packed(probes.graph(i)));
            ok = actual.label == expected[i].label && actual.score == expected[i].score &&
                 actual.class_scores == expected[i].class_scores;
            if (!ok) {
              diag << " [mode=" << (mode == SnapshotLoad::kRead ? "read" : "mmap")
                   << " probe " << i << ": label " << actual.label << " vs "
                   << expected[i].label << ", score " << actual.score << " vs "
                   << expected[i].score << "]";
            }
          }
          // The loaded snapshot must also upgrade to an equivalent trainer.
          if (ok) {
            auto upgraded = model_from_snapshot(*snapshot);
            const auto via_trainer = upgraded.predict(probes.graph(0));
            ok = via_trainer.label == expected[0].label &&
                 via_trainer.score == expected[0].score;
            if (!ok) diag << " [trainer upgrade diverged]";
          }
        }
        return ok;
      },
      proptest::Config{.cases = 24});
  fs::remove(path);
}

}  // namespace
