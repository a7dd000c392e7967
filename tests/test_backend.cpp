/// Tests of the trainer against the paper-exact dense reference, and of the
/// `backend` config field, which is a recorded tag.  A model fitted under
/// either tag must hold the counters and class words of the dense reference
/// (tests/support/dense_reference.hpp: bipolar encode + bipolar DenseMemory)
/// and predict bit-identically to it (labels and similarity doubles), on
/// synthetic and TUDataset-format fixtures, at any thread count, through
/// every extension and under both scoring rules.
/// Models fitted under the two tags must also write v3 artifacts that differ
/// only in the tag.  The equivalence matrix is property-based
/// (tests/support/proptest.hpp): the leading cases pin the historical config
/// sweep deterministically, the tail randomizes config combinations and
/// datasets, and failures replay/shrink by seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "data/scalability.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "support/dense_reference.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd::core;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::star_graph;
namespace parallel = graphhd::parallel;
namespace proptest = graphhd::proptest;
using graphhd::hdc::Rng;
using graphhd::testsupport::DenseReference;

/// Restores the process-wide pool so tests don't leak thread settings.
struct ThreadGuard {
  ~ThreadGuard() { parallel::set_threads(0); }
};

GraphHdConfig base_config() {
  GraphHdConfig config;
  config.dimension = 2048;  // smaller than the paper's 10k: same math, faster tests.
  config.seed = 0xbacc;
  return config;
}

GraphDataset synthetic_dataset(std::size_t num_vertices = 40, std::size_t num_graphs = 30) {
  graphhd::data::ScalabilityConfig spec;
  spec.num_vertices = num_vertices;
  spec.num_graphs = num_graphs;
  return graphhd::data::make_scalability_dataset(spec, /*seed=*/0x5e7ULL);
}

/// A small dataset that went through the TUDataset on-disk format (write +
/// re-read), as the CI fixtures would.
GraphDataset tudataset_fixture() {
  namespace fs = std::filesystem;
  const auto replica =
      graphhd::data::make_synthetic_replica("MUTAG", /*seed=*/0x70d5ULL, /*scale=*/0.1);
  const fs::path dir = fs::temp_directory_path() / "graphhd_backend_fixture";
  graphhd::data::save_tudataset(replica, dir);
  auto loaded = graphhd::data::load_tudataset(dir, replica.name());
  fs::remove_all(dir);
  return loaded;
}

/// One cell of the trainer-vs-reference equivalence matrix: every knob that
/// composes with the encoding and the class memory, plus the dataset shape.
/// Datasets regenerate from (tudataset, noisy_labels, num_vertices,
/// num_graphs), so a case is fully described — and replayable / shrinkable —
/// by these scalars.
struct BackendCase {
  std::size_t dimension = 2048;
  std::size_t retrain_epochs = 0;
  std::size_t prototypes = 1;
  std::size_t rounds = 0;
  bool use_vertex_labels = false;
  bool bitslice = true;
  bool inverse_hamming = false;
  bool quantized = true;      ///< false = counter-cosine scoring (dense tag only).
  bool tudataset = false;     ///< MUTAG-replica fixture (carries vertex labels).
  bool noisy_labels = false;  ///< every third label moved: retraining has work.
  std::size_t num_vertices = 40;
  std::size_t num_graphs = 30;
};

std::ostream& operator<<(std::ostream& out, const BackendCase& c) {
  return out << "d=" << c.dimension << " retrain=" << c.retrain_epochs
             << " prototypes=" << c.prototypes << " rounds=" << c.rounds
             << " vertex_labels=" << c.use_vertex_labels << " bitslice=" << c.bitslice
             << " inverse_hamming=" << c.inverse_hamming << " quantized=" << c.quantized
             << " dataset=" << (c.tudataset ? "tudataset" : "synthetic")
             << (c.noisy_labels ? "+noise" : "") << "(v=" << c.num_vertices
             << ", g=" << c.num_graphs << ")";
}

/// The historical fixed-config sweep, pinned onto the leading property
/// cases so it runs deterministically on every row at any CI scale.
[[nodiscard]] BackendCase pinned_backend_case(std::size_t index) {
  BackendCase c;
  switch (index) {
    case 0:  // baseline synthetic.
      break;
    case 1:  // disk-format fixture.
      c.tudataset = true;
      break;
    case 2:  // labels route the packed encoder through its dense-then-pack fallback.
      c.tudataset = true;
      c.use_vertex_labels = true;
      break;
    case 3:
      c.retrain_epochs = 3;
      c.noisy_labels = true;
      break;
    case 4:
      c.prototypes = 3;
      break;
    case 5:
      c.inverse_hamming = true;
      break;
    case 6:  // message passing is O(rounds * d * (V+2E)) — keep it small.
      c.rounds = 1;
      c.dimension = 512;
      c.num_vertices = 20;
      break;
    case 7:
      c.bitslice = false;
      c.num_vertices = 20;
      break;
    case 8:  // counter-cosine scoring.
      c.quantized = false;
      break;
    case 9:  // what the CLI's --retrain selects under the dense tag; a shape
             // where counter cosine and Hamming pick different mistakes.
      c.quantized = false;
      c.retrain_epochs = 3;
      c.noisy_labels = true;
      c.dimension = 1190;
      c.num_vertices = 26;
      c.num_graphs = 17;
      break;
    default:  // counter scoring through prototypes, retraining and labels.
      c.quantized = false;
      c.retrain_epochs = 2;
      c.prototypes = 2;
      c.tudataset = true;
      c.use_vertex_labels = true;
      c.noisy_labels = true;
      break;
  }
  return c;
}
constexpr std::size_t kPinnedBackendCases = 11;

/// Moves every third sample to the next class, so the training set is not
/// separable and the retraining passes make updates.
[[nodiscard]] GraphDataset with_label_noise(const GraphDataset& dataset) {
  GraphDataset noisy(dataset.name(), {}, {});
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::size_t label = dataset.label(i);
    noisy.add(dataset.graph(i), i % 3 == 2 ? (label + 1) % dataset.num_classes() : label);
  }
  if (dataset.has_vertex_labels()) noisy.set_vertex_labels(dataset.vertex_labels());
  return noisy;
}

[[nodiscard]] GraphDataset case_dataset(const BackendCase& c) {
  // The tudataset fixture is a fixed-shape disk-format roundtrip; the
  // num_vertices/num_graphs knobs shape the synthetic datasets only.
  const GraphDataset dataset =
      c.tudataset ? tudataset_fixture() : synthetic_dataset(c.num_vertices, c.num_graphs);
  return c.noisy_labels ? with_label_noise(dataset) : dataset;
}

[[nodiscard]] GraphHdConfig case_config(const BackendCase& c) {
  GraphHdConfig config = base_config();
  config.dimension = c.dimension;
  config.retrain_epochs = c.retrain_epochs;
  config.vectors_per_class = c.prototypes;
  config.neighborhood_rounds = c.rounds;
  config.use_vertex_labels = c.use_vertex_labels;
  config.use_bitslice_bundling = c.bitslice;
  config.quantized_model = c.quantized;
  if (c.inverse_hamming) config.metric = graphhd::hdc::Similarity::kInverseHamming;
  return config;
}

/// Checks that two v3 artifacts differ only where the backend tag lives: the
/// config section's backend field and that section's checksum in the
/// section table (byte layout: docs/formats.md).
[[nodiscard]] bool only_backend_tag_differs(const std::string& dense, const std::string& packed,
                                            std::ostream& diag) {
  if (dense.size() != packed.size()) {
    diag << " [artifact sizes differ]";
    return false;
  }
  // 16-byte header, then 32-byte table entries {id u32, reserved u32,
  // offset u64, length u64, checksum u64}; the config section comes first.
  constexpr std::size_t kConfigEntry = 16;
  std::uint32_t first_id = 0;
  std::uint64_t config_offset = 0;
  std::memcpy(&first_id, dense.data() + kConfigEntry, sizeof first_id);
  std::memcpy(&config_offset, dense.data() + kConfigEntry + 8, sizeof config_offset);
  if (first_id != 1u) {
    diag << " [first section is " << first_id << ", not config]";
    return false;
  }
  const std::size_t checksum_at = kConfigEntry + 24;
  // dimension, pagerank_iterations, damping (u64) + identifier, metric (u32).
  const std::size_t backend_at = static_cast<std::size_t>(config_offset) + 32;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    const bool tag_bytes = (i >= checksum_at && i < checksum_at + 8) ||
                           (i >= backend_at && i < backend_at + 4);
    if (!tag_bytes && dense[i] != packed[i]) {
      diag << " [artifacts differ at byte " << i << "]";
      return false;
    }
  }
  if (dense.substr(backend_at, 4) == packed.substr(backend_at, 4)) {
    diag << " [backend field not found]";
    return false;
  }
  return true;
}

[[nodiscard]] bool same_prediction(const Prediction& a, const Prediction& b) {
  return a.label == b.label && a.score == b.score && a.class_scores == b.class_scores;
}

/// The model's learned state equals the reference's, slot by slot: raw
/// counters, add/sample counts, tie state, and the packed class words it
/// deploys equal the packing of the reference's quantized class vectors.
[[nodiscard]] bool same_state(const GraphHdModel& model, const DenseReference& reference,
                              std::ostream& diag) {
  const auto& expected = reference.memory();
  const auto snapshot = model.snapshot();
  for (std::size_t slot = 0; slot < expected.num_classes(); ++slot) {
    const auto& want = expected.accumulator(slot);
    const auto& have = model.memory().accumulator(slot);
    if (!std::ranges::equal(have.counts(), want.counts()) || have.count() != want.count() ||
        have.tie_free() != want.tie_free() ||
        model.memory().class_count(slot) != expected.class_count(slot)) {
      diag << " [slot " << slot << " counters differ]";
      return false;
    }
    const auto packed = graphhd::hdc::PackedHypervector::from_bipolar(expected.class_vector(slot));
    if (!std::ranges::equal(snapshot->packed_words(slot), packed.words())) {
      diag << " [slot " << slot << " class words differ]";
      return false;
    }
  }
  return true;
}

/// The equivalence contract: a model fitted under the dense tag holds the
/// dense reference's state and predicts bit-identically to it (labels AND
/// similarity doubles) at 1, 2 and 8 threads.  A quantized config is fitted
/// under the packed tag too, which must change nothing but the artifact's
/// tag bytes.
[[nodiscard]] bool matches_reference(const BackendCase& c, std::ostream& diag) {
  diag << c;
  ThreadGuard guard;
  parallel::set_threads(1);
  const auto dataset = case_dataset(c);
  const GraphHdConfig config = case_config(c);
  DenseReference reference(config, dataset.num_classes());
  reference.fit(dataset);
  const auto expected = reference.predict_batch(dataset);

  std::vector<Backend> tags{Backend::kDenseBipolar};
  if (c.quantized) tags.push_back(Backend::kPackedBinary);  // validate() rejects the rest.
  std::vector<std::string> artifacts;
  for (const Backend tag : tags) {
    GraphHdConfig tagged = config;
    tagged.backend = tag;
    GraphHdModel model(tagged, dataset.num_classes());
    parallel::set_threads(1);
    model.fit(dataset);
    diag << " [" << to_string(tag) << " tag]";
    if (!same_state(model, reference, diag)) return false;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      parallel::set_threads(threads);
      const auto predictions = model.predict_batch(dataset);
      if (predictions.size() != expected.size()) {
        diag << " [size mismatch at " << threads << " threads]";
        return false;
      }
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (!same_prediction(predictions[i], expected[i])) {
          diag << " [sample " << i << " diverges at " << threads << " threads]";
          return false;
        }
      }
    }
    std::ostringstream artifact;
    save_model(model, artifact);
    artifacts.push_back(artifact.str());
  }
  return artifacts.size() < 2 || only_backend_tag_differs(artifacts[0], artifacts[1], diag);
}

TEST(PackedBackend, PropertyMatchesDenseAcrossConfigsAndThreads) {
  proptest::check<BackendCase>(
      "trainer bit-identical to the dense reference under every tag across configs/threads",
      [](Rng& rng, std::size_t case_index) {
        if (case_index < kPinnedBackendCases) return pinned_backend_case(case_index);
        BackendCase c;
        c.dimension = 256 + rng.next_below(1280);
        c.retrain_epochs = rng.next_below(3);
        c.prototypes = 1 + rng.next_below(3);
        c.tudataset = rng.next_bool();
        c.use_vertex_labels = c.tudataset && rng.next_bool();
        c.bitslice = rng.next_bool();
        c.inverse_hamming = rng.next_bool();
        c.quantized = !rng.next_bool(0.25);
        c.noisy_labels = rng.next_bool();
        c.num_vertices = 16 + rng.next_below(24);
        c.num_graphs = 12 + rng.next_below(18);
        if (rng.next_bool(0.25)) {
          c.rounds = 1;
          c.dimension = 256 + rng.next_below(256);
        }
        return c;
      },
      [](const BackendCase& failing) {
        // Shrink one knob at a time toward the baseline cell.
        std::vector<BackendCase> candidates;
        const auto with = [&](auto mutate) {
          BackendCase smaller = failing;
          mutate(smaller);
          candidates.push_back(smaller);
        };
        if (failing.retrain_epochs > 0) with([](BackendCase& c) { c.retrain_epochs = 0; });
        if (failing.prototypes > 1) with([](BackendCase& c) { c.prototypes = 1; });
        if (failing.rounds > 0) with([](BackendCase& c) { c.rounds = 0; });
        if (failing.use_vertex_labels) with([](BackendCase& c) { c.use_vertex_labels = false; });
        if (!failing.bitslice) with([](BackendCase& c) { c.bitslice = true; });
        if (failing.inverse_hamming) with([](BackendCase& c) { c.inverse_hamming = false; });
        if (!failing.quantized) with([](BackendCase& c) { c.quantized = true; });
        if (failing.tudataset) with([](BackendCase& c) { c.tudataset = false; });
        if (failing.noisy_labels) with([](BackendCase& c) { c.noisy_labels = false; });
        if (failing.dimension > 64) with([](BackendCase& c) { c.dimension /= 2; });
        if (failing.num_graphs > 4) with([](BackendCase& c) { c.num_graphs /= 2; });
        return candidates;
      },
      matches_reference, proptest::Config{.cases = 13, .min_cases = kPinnedBackendCases});
}

TEST(PackedBackend, EncoderPackedMatchesPackedDenseEncoding) {
  // encode_packed must be the exact packing of the dense reference encoder —
  // on the baseline, with vertex labels bound in (VII.2), with message
  // passing (VII.1c), with both, and with the bitslice field cleared —
  // including the edgeless-graph fallback; encode must be its bipolar image.
  // One encoder runs every graph, so message passing reads the tie words it
  // kept from earlier graphs (star leaves tie); the big star puts leaf ranks
  // past the cache cap.
  const auto edgeless = graphhd::graph::Graph::from_edges(5, {});
  const std::vector<graphhd::graph::Graph> graphs{
      star_graph(9), cycle_graph(12), edgeless,
      star_graph(GraphHdEncoder::kPackedRankCacheCap + 50), star_graph(9)};
  std::vector<GraphHdConfig> configs(5, base_config());
  configs[1].use_vertex_labels = true;
  configs[2].neighborhood_rounds = 2;
  configs[3].use_vertex_labels = true;
  configs[3].neighborhood_rounds = 1;
  configs[4].use_bitslice_bundling = false;
  for (const GraphHdConfig& config : configs) {
    SCOPED_TRACE("labels=" + std::to_string(config.use_vertex_labels) +
                 " rounds=" + std::to_string(config.neighborhood_rounds) +
                 " bitslice=" + std::to_string(config.use_bitslice_bundling));
    GraphHdEncoder encoder(config);
    graphhd::testsupport::DenseEncoder reference(config);
    for (const auto& graph : graphs) {
      std::vector<std::size_t> labels(graph.num_vertices());
      // Mostly small labels, and some past the packed label cache's cap.
      for (std::size_t v = 0; v < labels.size(); ++v) {
        labels[v] = v % 4 == 3 ? GraphHdEncoder::kPackedRankCacheCap + v : (v * 7) % 3;
      }
      const auto expected = reference.encode(graph, labels);
      const auto packed = encoder.encode_packed(graph, labels);
      EXPECT_EQ(packed, graphhd::hdc::PackedHypervector::from_bipolar(expected));
      if (!config.use_vertex_labels) {
        EXPECT_EQ(encoder.encode_packed(graph), packed);
        EXPECT_EQ(encoder.encode(graph), expected);
      }
    }
  }
}

/// Online-learning case: a random interleaved partial_fit history (graph
/// kind, size, label per step) followed by probe predictions.  The former
/// fixed star/cycle loop, upgraded to random histories with step shrinking.
struct PartialFitCase {
  struct Step {
    bool star = true;  ///< star_graph vs cycle_graph.
    std::size_t n = 6;
    std::size_t label = 0;
  };
  std::vector<Step> steps;
  std::size_t prototypes = 1;
  bool quantized = true;
};

std::ostream& operator<<(std::ostream& out, const PartialFitCase& c) {
  out << "prototypes=" << c.prototypes << " quantized=" << c.quantized << ", ";
  out << c.steps.size() << " steps:";
  for (const auto& s : c.steps) {
    out << ' ' << (s.star ? "star" : "cycle") << '(' << s.n << ")->" << s.label;
  }
  return out;
}

TEST(PackedBackend, PropertyPartialFitMatchesDense) {
  proptest::check<PartialFitCase>(
      "online partial_fit keeps the trainer bit-identical to the dense reference",
      [](Rng& rng, std::size_t) {
        PartialFitCase c;
        const std::size_t steps = 2 + rng.next_below(15);
        for (std::size_t i = 0; i < steps; ++i) {
          c.steps.push_back({rng.next_bool(), 4 + rng.next_below(12), rng.next_below(2)});
        }
        c.prototypes = 1 + rng.next_below(2);
        c.quantized = !rng.next_bool(0.3);
        return c;
      },
      [](const PartialFitCase& failing) {
        std::vector<PartialFitCase> candidates;
        if (failing.steps.size() > 1) {
          PartialFitCase fewer = failing;
          fewer.steps.pop_back();
          candidates.push_back(std::move(fewer));
          PartialFitCase halved = failing;
          halved.steps.resize(failing.steps.size() / 2);
          candidates.push_back(std::move(halved));
        }
        if (failing.prototypes > 1) {
          PartialFitCase single = failing;
          single.prototypes = 1;
          candidates.push_back(std::move(single));
        }
        if (!failing.quantized) {
          PartialFitCase quantized = failing;
          quantized.quantized = true;
          candidates.push_back(std::move(quantized));
        }
        return candidates;
      },
      [](const PartialFitCase& c, std::ostream& diag) {
        diag << c;
        GraphHdConfig config = base_config();
        config.dimension = 1024;
        config.vectors_per_class = c.prototypes;
        config.quantized_model = c.quantized;
        DenseReference reference(config, 2);
        for (const auto& step : c.steps) {
          reference.partial_fit(step.star ? star_graph(step.n) : cycle_graph(step.n), step.label);
        }
        std::vector<Backend> tags{Backend::kDenseBipolar};
        if (c.quantized) tags.push_back(Backend::kPackedBinary);
        for (const Backend tag : tags) {
          config.backend = tag;
          GraphHdModel model(config, 2);
          for (const auto& step : c.steps) {
            model.partial_fit(step.star ? star_graph(step.n) : cycle_graph(step.n), step.label);
          }
          diag << " [" << to_string(tag) << " tag]";
          if (!same_state(model, reference, diag)) return false;
          for (std::size_t n = 5; n < 16; ++n) {
            for (const auto& probe : {cycle_graph(n), star_graph(n)}) {
              if (!same_prediction(model.predict(probe), reference.predict(probe))) {
                diag << " [probe of " << n << " vertices diverges]";
                return false;
              }
            }
          }
        }
        return true;
      },
      proptest::Config{.cases = 16});
}

TEST(PackedBackend, PredictEncodedAcceptsEitherRepresentation) {
  GraphHdConfig config = base_config();
  config.backend = Backend::kPackedBinary;
  GraphHdModel model(config, 2);
  model.partial_fit(star_graph(8), 0);
  model.partial_fit(cycle_graph(8), 1);
  const auto dense_hv = model.encoder().encode(star_graph(10));
  const auto packed_hv = model.encoder().encode_packed(star_graph(10));
  const auto via_dense = model.snapshot()->predict_encoded(dense_hv);
  const auto via_packed = model.predict_encoded(packed_hv);
  EXPECT_EQ(via_dense.label, via_packed.label);
  EXPECT_EQ(via_dense.score, via_packed.score);
}

TEST(PackedBackend, RejectsNonQuantizedModel) {
  GraphHdConfig config = base_config();
  config.backend = Backend::kPackedBinary;
  config.quantized_model = false;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(GraphHdModel(config, 2), std::invalid_argument);
}

TEST(PackedBackend, MemoryAccessorsMatchBackend) {
  // memory() is the one class memory under either tag, shaped by the config.
  for (const Backend backend : {Backend::kDenseBipolar, Backend::kPackedBinary}) {
    GraphHdConfig config = base_config();
    config.backend = backend;
    config.vectors_per_class = 2;
    GraphHdModel model(config, 3);
    EXPECT_EQ(model.memory().num_classes(), 6u) << to_string(backend);
    EXPECT_EQ(model.memory().dimension(), config.dimension) << to_string(backend);
    EXPECT_TRUE(model.memory().quantized()) << to_string(backend);
  }
}

TEST(PackedBackend, GraphHdFacadeRunsPacked) {
  GraphHdConfig config = base_config();
  config.backend = Backend::kPackedBinary;
  GraphHd classifier(config);
  const auto dataset = synthetic_dataset(25);
  classifier.fit(dataset);
  EXPECT_GT(classifier.score(dataset), 0.5);  // learnable signal by design.
}

TEST(BackendConfig, ParseAndToString) {
  EXPECT_STREQ(to_string(Backend::kDenseBipolar), "dense");
  EXPECT_STREQ(to_string(Backend::kPackedBinary), "packed");
  EXPECT_EQ(parse_backend("dense"), Backend::kDenseBipolar);
  EXPECT_EQ(parse_backend("bipolar"), Backend::kDenseBipolar);
  EXPECT_EQ(parse_backend("packed"), Backend::kPackedBinary);
  EXPECT_EQ(parse_backend("binary"), Backend::kPackedBinary);
  EXPECT_EQ(parse_backend("simd"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
}

}  // namespace
