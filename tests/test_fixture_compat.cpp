/// Golden-fixture compatibility gates: the checked-in v1/v2 text artifacts
/// under tests/fixtures/ were written by the legacy (pre-v3) serializer and
/// must keep loading — and keep predicting bit-identically — forever.
///
/// Two directions are pinned:
///  * reader stability: load_model on the golden bytes reconstructs a model
///    whose predictions match a freshly trained twin exactly;
///  * writer stability: save_model_text of the twin reproduces the golden
///    v2 bytes verbatim, so the text format cannot drift silently even if
///    reader and writer were changed together.  The model_v3_* fixtures do
///    the same for the binary writer: they were written by the trainer that
///    still ran a separate dense and packed code path, so they also pin the
///    one trainer path to that trainer's counters, class words and bytes,
///    under both tags and under counter scoring with retraining.
///
/// The fixtures were generated from the synthetic MUTAG replica (seed 5,
/// scale 0.05) with dimension 96, seed 0x6f1d — everything deterministic,
/// so the twin is reproducible on any machine and tool chain.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/synthetic.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd;

const fs::path kFixtureDir = fs::path(GRAPHHD_TEST_DIR) / "fixtures";

/// `counter_model` selects the model_v3_dense_counter twin: counter-cosine
/// scoring, two prototypes per class and two retraining epochs, fitted on a
/// larger replica (scale 0.25) that the bundling pass alone does not fit, so
/// retraining changes the counters.
core::GraphHdModel fixture_twin(core::Backend backend, bool counter_model = false) {
  core::GraphHdConfig config;
  config.dimension = 96;
  config.seed = 0x6f1d;
  config.backend = backend;
  if (counter_model) {
    config.quantized_model = false;
    config.retrain_epochs = 2;
    config.vectors_per_class = 2;
  }
  const auto dataset =
      data::make_synthetic_replica("MUTAG", /*seed=*/5, /*scale=*/counter_model ? 0.25 : 0.05);
  core::GraphHdModel model(config, dataset.num_classes());
  model.fit(dataset);
  return model;
}

void expect_bit_identical_predictions(core::GraphHdModel& expected,
                                      core::GraphHdModel& actual) {
  const auto probes = data::make_synthetic_replica("MUTAG", /*seed=*/11, /*scale=*/0.05);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = expected.predict(probes.graph(i));
    const auto b = actual.predict(probes.graph(i));
    EXPECT_EQ(a.label, b.label) << "probe " << i;
    EXPECT_EQ(a.score, b.score) << "probe " << i;
    EXPECT_EQ(a.class_scores, b.class_scores) << "probe " << i;
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FixtureCompat, V2DenseGoldenLoadsAndPredictsIdentically) {
  auto twin = fixture_twin(core::Backend::kDenseBipolar);
  auto loaded = core::load_model(kFixtureDir / "model_v2_dense.ghd");
  EXPECT_EQ(loaded.config().backend, core::Backend::kDenseBipolar);
  EXPECT_EQ(loaded.config().dimension, 96u);
  expect_bit_identical_predictions(twin, loaded);
}

TEST(FixtureCompat, V2PackedGoldenLoadsAndPredictsIdentically) {
  auto twin = fixture_twin(core::Backend::kPackedBinary);
  auto loaded = core::load_model(kFixtureDir / "model_v2_packed.ghd");
  EXPECT_EQ(loaded.config().backend, core::Backend::kPackedBinary);
  expect_bit_identical_predictions(twin, loaded);
}

TEST(FixtureCompat, V1DenseGoldenLoadsAndPredictsIdentically) {
  // v1 predates the backend header: it must load as an implicit dense model
  // and agree with the v2 dense twin bit for bit.
  auto twin = fixture_twin(core::Backend::kDenseBipolar);
  auto loaded = core::load_model(kFixtureDir / "model_v1_dense.ghd");
  EXPECT_EQ(loaded.config().backend, core::Backend::kDenseBipolar);
  expect_bit_identical_predictions(twin, loaded);
}

TEST(FixtureCompat, TextWriterStillProducesTheGoldenBytes) {
  // Writer drift guard: a retrained twin must serialize to exactly the
  // golden v2 bytes.  If this fails, the text format changed — bump the
  // version and add a new fixture instead of editing this one.
  for (const auto& [backend, name] :
       {std::pair{core::Backend::kDenseBipolar, "model_v2_dense.ghd"},
        std::pair{core::Backend::kPackedBinary, "model_v2_packed.ghd"}}) {
    auto twin = fixture_twin(backend);
    std::ostringstream out;
    core::save_model_text(twin, out);
    EXPECT_EQ(out.str(), slurp(kFixtureDir / name)) << name;
  }
}

TEST(FixtureCompat, BinaryWriterStillProducesTheGoldenBytes) {
  // Same drift guard for save_model: the retrained twin must serialize to
  // exactly the golden v3 bytes under each tag and scoring rule.
  struct Golden {
    core::Backend backend;
    bool counter_model;
    const char* name;
  };
  for (const Golden& golden : {Golden{core::Backend::kDenseBipolar, false, "model_v3_dense.ghd"},
                               Golden{core::Backend::kPackedBinary, false, "model_v3_packed.ghd"},
                               Golden{core::Backend::kDenseBipolar, true,
                                      "model_v3_dense_counter.ghd"}}) {
    auto twin = fixture_twin(golden.backend, golden.counter_model);
    std::ostringstream out;
    core::save_model(twin, out);
    EXPECT_EQ(out.str(), slurp(kFixtureDir / golden.name)) << golden.name;
  }
}

TEST(FixtureCompat, GoldenArtifactsUpgradeToV3Losslessly) {
  // The migration path: golden text -> load -> save v3 -> load -> identical
  // predictions (what `graphhd_cli convert` does).
  for (const char* name : {"model_v1_dense.ghd", "model_v2_dense.ghd", "model_v2_packed.ghd"}) {
    auto legacy = core::load_model(kFixtureDir / name);
    std::stringstream v3;
    core::save_model(legacy, v3);
    EXPECT_EQ(v3.str().rfind("GHDMDL3\n", 0), 0u) << name;
    auto upgraded = core::load_model(v3);
    expect_bit_identical_predictions(legacy, upgraded);
  }
}

TEST(FixtureCompat, GoldenArtifactsLoadAsSnapshots) {
  // Text artifacts have no zero-copy path, but load_snapshot must still
  // accept them (parse + convert) under every mode.
  auto twin = fixture_twin(core::Backend::kDenseBipolar);
  const auto snapshot =
      core::load_snapshot(kFixtureDir / "model_v2_dense.ghd", core::SnapshotLoad::kMmap);
  core::GraphHdEncoder encoder(snapshot->config());
  const auto probes = data::make_synthetic_replica("MUTAG", /*seed=*/11, /*scale=*/0.05);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = twin.predict(probes.graph(i));
    const auto b = snapshot->predict_encoded(encoder.encode_packed(probes.graph(i)));
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.score, b.score) << i;
  }
}

TEST(FixtureCompat, InspectReadsGoldenHeaders) {
  const auto v1 = core::inspect_model(kFixtureDir / "model_v1_dense.ghd");
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v1.backend, core::Backend::kDenseBipolar);
  EXPECT_EQ(v1.dimension, 96u);
  const auto v2 = core::inspect_model(kFixtureDir / "model_v2_packed.ghd");
  EXPECT_EQ(v2.version, 2);
  EXPECT_EQ(v2.backend, core::Backend::kPackedBinary);
  EXPECT_EQ(v2.num_classes, 2u);
  EXPECT_TRUE(v2.fitted);
}

TEST(FixtureCompat, InspectRejectsTheHeadersLoadModelRejects) {
  // model-info must not pass a text artifact that load_model refuses: both
  // parse the header through one function with every bound and validate().
  std::string golden;
  {
    std::ifstream in(kFixtureDir / "model_v2_dense.ghd", std::ios::binary);
    golden.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto corrupt = [](std::string text, const std::string& from, const std::string& to) {
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::string zero_dimension = corrupt(golden, "dimension 96\n", "dimension 0\n");
  const fs::path path = fs::temp_directory_path() / "graphhd_inspect_bad_header.ghd";
  for (const std::string& text :
       {zero_dimension, corrupt(golden, "identifier 0\n", "identifier 99\n"),
        corrupt(zero_dimension, "identifier 0\n", "identifier 99\n"),
        corrupt(golden, "num_classes 2\n", "num_classes 1\n")}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    EXPECT_THROW((void)core::load_model(path), std::runtime_error);
    EXPECT_THROW((void)core::inspect_model(path), std::runtime_error);
  }
  fs::remove(path);
}

}  // namespace
