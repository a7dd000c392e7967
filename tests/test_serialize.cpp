#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "graph/generators.hpp"

namespace {

using namespace graphhd::core;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::star_graph;

GraphHdConfig small_config() {
  GraphHdConfig config;
  config.dimension = 1024;
  config.seed = 0x51a1;
  return config;
}

GraphDataset toy_dataset(std::size_t per_class) {
  GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < per_class; ++i) {
    dataset.add(star_graph(8 + i % 3), 0);
    dataset.add(cycle_graph(8 + i % 3), 1);
  }
  return dataset;
}

GraphHdModel trained_model(GraphHdConfig config = small_config()) {
  GraphHdModel model(config, 2);
  model.fit(toy_dataset(8));
  return model;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  auto restored = load_model(buffer);

  const auto probes = toy_dataset(5);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = original.predict(probes.graph(i));
    const auto b = restored.predict(probes.graph(i));
    EXPECT_EQ(a.label, b.label) << "probe " << i;
    EXPECT_DOUBLE_EQ(a.score, b.score) << "probe " << i;
  }
}

TEST(Serialize, RoundTripPreservesConfig) {
  GraphHdConfig config = small_config();
  config.vectors_per_class = 2;
  config.quantized_model = false;
  config.metric = graphhd::hdc::Similarity::kInverseHamming;
  config.pagerank_iterations = 7;
  config.neighborhood_rounds = 1;
  auto original = trained_model(config);
  std::stringstream buffer;
  save_model(original, buffer);
  const auto restored = load_model(buffer);
  EXPECT_EQ(restored.config().dimension, config.dimension);
  EXPECT_EQ(restored.config().vectors_per_class, 2u);
  EXPECT_FALSE(restored.config().quantized_model);
  EXPECT_EQ(restored.config().metric, graphhd::hdc::Similarity::kInverseHamming);
  EXPECT_EQ(restored.config().pagerank_iterations, 7u);
  EXPECT_EQ(restored.config().neighborhood_rounds, 1u);
  EXPECT_EQ(restored.config().seed, config.seed);
  EXPECT_EQ(restored.num_classes(), 2u);
  EXPECT_TRUE(restored.fitted());
}

TEST(Serialize, RoundTripPreservesClassCounts) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  const auto restored = load_model(buffer);
  EXPECT_EQ(restored.class_counts(), original.class_counts());
}

TEST(Serialize, RestoredModelSupportsOnlineUpdates) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  auto restored = load_model(buffer);
  // partial_fit continues from the restored state without throwing, and the
  // model still classifies.
  restored.partial_fit(star_graph(10), 0);
  EXPECT_EQ(restored.predict(star_graph(9)).label, 0u);
}

TEST(Serialize, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "graphhd_model_test.ghd";
  auto original = trained_model();
  save_model(original, path);
  auto restored = load_model(path);
  EXPECT_EQ(restored.predict(cycle_graph(9)).label, original.predict(cycle_graph(9)).label);
  fs::remove(path);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("NOT-A-MODEL 1\n");
  EXPECT_THROW((void)load_model(buffer), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersion) {
  std::stringstream buffer("GRAPHHD-MODEL 999\n");
  EXPECT_THROW((void)load_model(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedFile) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_model(truncated), std::runtime_error);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW((void)load_model(std::filesystem::path("/nonexistent/model.ghd")),
               std::runtime_error);
}

/// Serializes a trained model as text, rewrites the value of `key` to
/// `value`, and returns the corrupted artifact as a stream-ready string.
std::string corrupt_field(const std::string& key, const std::string& value) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model_text(original, buffer);
  std::stringstream in(buffer.str());
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
    out += line + "\n";
  }
  return out;
}

TEST(Serialize, RejectsOutOfRangeIdentifierEnum) {
  // An unchecked cast of 99 into VertexIdentifier would be UB in every later
  // switch over the enum; the loader must reject it instead.
  std::stringstream corrupted(corrupt_field("identifier", "99"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsNegativeIdentifierEnum) {
  std::stringstream corrupted(corrupt_field("identifier", "-1"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeMetricEnum) {
  std::stringstream corrupted(corrupt_field("metric", "42"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsNonNumericValueNamingTheKey) {
  std::stringstream corrupted(corrupt_field("dimension", "banana"));
  try {
    (void)load_model(corrupted);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("dimension"), std::string::npos)
        << "error should name the offending key: " << error.what();
  }
}

TEST(Serialize, RejectsNegativeUnsignedValue) {
  // std::stoull would silently wrap "-1" to 2^64-1, which passes validate()
  // and then dies allocating a ~2^64-bit hypervector; the loader must catch
  // the sign instead.
  std::stringstream corrupted(corrupt_field("dimension", "-1"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
  std::stringstream epochs(corrupt_field("retrain_epochs", "-1"));
  EXPECT_THROW((void)load_model(epochs), std::runtime_error);
  // Leading whitespace must not smuggle the sign past the check (stoull
  // skips blanks before a '-').
  std::stringstream padded(corrupt_field("dimension", " -1"));
  EXPECT_THROW((void)load_model(padded), std::runtime_error);
}

TEST(Serialize, RejectsTrailingGarbageInNumericValue) {
  std::stringstream corrupted(corrupt_field("dimension", "1024abc"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsInvalidConfigValues) {
  // Parses fine but fails GraphHdConfig::validate() (dimension must be > 0).
  std::stringstream zero_dim(corrupt_field("dimension", "0"));
  EXPECT_THROW((void)load_model(zero_dim), std::runtime_error);
  std::stringstream bad_damping(corrupt_field("pagerank_damping", "1.5"));
  EXPECT_THROW((void)load_model(bad_damping), std::runtime_error);
  // NaN fails every comparison, so a naive range check would accept it and
  // poison PageRank; validate() uses a negated interval check to catch it.
  std::stringstream nan_damping(corrupt_field("pagerank_damping", "nan"));
  EXPECT_THROW((void)load_model(nan_damping), std::runtime_error);
}

TEST(Serialize, RejectsTooFewClasses) {
  std::stringstream corrupted(corrupt_field("num_classes", "1"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

TEST(Serialize, RoundTripSurvivesEveryFieldIntact) {
  // Guard for the hardening: a *valid* file still loads after the stricter
  // checks, and the restored model predicts identically.
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  auto restored = load_model(buffer);
  for (std::size_t n = 6; n < 12; ++n) {
    EXPECT_EQ(restored.predict(star_graph(n)).label, original.predict(star_graph(n)).label);
    EXPECT_EQ(restored.predict(cycle_graph(n)).label, original.predict(cycle_graph(n)).label);
  }
}

// ---------------------------------------------------------------------------
// Packed-backend serialization (format version 2).
// ---------------------------------------------------------------------------

GraphHdConfig packed_config() {
  GraphHdConfig config = small_config();
  config.backend = Backend::kPackedBinary;
  return config;
}

TEST(SerializePacked, RoundTripPreservesPredictions) {
  auto original = trained_model(packed_config());
  std::stringstream buffer;
  save_model(original, buffer);
  auto restored = load_model(buffer);
  EXPECT_EQ(restored.config().backend, Backend::kPackedBinary);

  const auto probes = toy_dataset(5);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = original.predict(probes.graph(i));
    const auto b = restored.predict(probes.graph(i));
    EXPECT_EQ(a.label, b.label) << "probe " << i;
    EXPECT_EQ(a.score, b.score) << "probe " << i;
  }
}

TEST(SerializePacked, ArtifactMatchesDenseModelExceptBackendLine) {
  // The slot counters are the backend-agnostic raw state: training the same
  // data through either backend must serialize to the same bytes apart from
  // the backend header line.
  auto dense = trained_model(small_config());
  auto packed = trained_model(packed_config());
  std::stringstream dense_buffer, packed_buffer;
  save_model_text(dense, dense_buffer);
  save_model_text(packed, packed_buffer);
  std::string dense_text = dense_buffer.str();
  std::string packed_text = packed_buffer.str();
  const auto rewrite_backend_line = [](std::string text) {
    const auto pos = text.find("backend ");
    const auto eol = text.find('\n', pos);
    return text.substr(0, pos) + text.substr(eol + 1);
  };
  EXPECT_EQ(rewrite_backend_line(dense_text), rewrite_backend_line(packed_text));
}

TEST(SerializePacked, CrossBackendLoadPredictsIdentically) {
  // Editing the backend header reinterprets the same counters on the other
  // backend — predictions must not change (the backends are bit-equivalent).
  auto packed = trained_model(packed_config());
  std::stringstream buffer;
  save_model_text(packed, buffer);
  std::string text = buffer.str();
  const auto pos = text.find("backend 1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '0';
  std::stringstream as_dense_stream(text);
  auto as_dense = load_model(as_dense_stream);
  EXPECT_EQ(as_dense.config().backend, Backend::kDenseBipolar);
  for (std::size_t n = 6; n < 12; ++n) {
    const auto a = packed.predict(cycle_graph(n));
    const auto b = as_dense.predict(cycle_graph(n));
    EXPECT_EQ(a.label, b.label) << n;
    EXPECT_EQ(a.score, b.score) << n;
  }
}

TEST(SerializePacked, LoadsVersion1DenseFiles) {
  // Backward compatibility: a version-1 artifact (pre-backend header) is a
  // dense model; synthesize one from the current writer's output.
  auto original = trained_model();
  std::stringstream buffer;
  save_model_text(original, buffer);
  std::string text = buffer.str();
  const auto magic_eol = text.find('\n');
  const auto backend_eol = text.find('\n', magic_eol + 1);
  text = "GRAPHHD-MODEL 1\n" + text.substr(backend_eol + 1);
  std::stringstream v1_stream(text);
  auto restored = load_model(v1_stream);
  EXPECT_EQ(restored.config().backend, Backend::kDenseBipolar);
  EXPECT_EQ(restored.predict(star_graph(9)).label, original.predict(star_graph(9)).label);
}

TEST(SerializePacked, RejectsOutOfRangeBackendEnum) {
  std::stringstream corrupted(corrupt_field("backend", "7"));
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
  std::stringstream negative(corrupt_field("backend", "-1"));
  EXPECT_THROW((void)load_model(negative), std::runtime_error);
}

TEST(SerializePacked, RejectsPackedNonQuantizedCombination) {
  // quantized 0 + backend packed parses but fails config.validate().
  auto packed = trained_model(packed_config());
  std::stringstream buffer;
  save_model_text(packed, buffer);
  std::string text = buffer.str();
  const auto pos = text.find("quantized 1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 10] = '0';
  std::stringstream corrupted(text);
  EXPECT_THROW((void)load_model(corrupted), std::runtime_error);
}

/// Returns a text-serialized packed model with `mutate` applied.
template <typename Mutate>
std::string mutated_packed_artifact(Mutate mutate) {
  auto original = trained_model(packed_config());
  std::stringstream buffer;
  save_model_text(original, buffer);
  std::string text = buffer.str();
  mutate(text);
  return text;
}

TEST(SerializePacked, RejectsCorruptCounterWord) {
  // Mirrors the dense corrupt-file gates: a garbled token inside a counter
  // row must fail loudly, wherever it sits.
  const std::string artifact = mutated_packed_artifact([](std::string&) {});
  const auto first_row_start = artifact.find('\n', artifact.find("slot 0")) + 1;
  const auto first_row_end = artifact.find('\n', first_row_start);

  // Corrupt a token in the middle of the row.
  {
    std::string text = artifact;
    const auto mid = text.find(' ', first_row_start + (first_row_end - first_row_start) / 2);
    text.replace(mid, 1, " x");
    std::stringstream in(text);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
  // Append garbage after the last counter of the row (used to be silently
  // ignored before the trailing-token check).
  {
    std::string text = artifact;
    text.insert(first_row_end, " banana");
    std::stringstream in(text);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
}

TEST(SerializePacked, RejectsTruncatedFile) {
  const std::string artifact = mutated_packed_artifact([](std::string&) {});
  for (const double fraction : {0.25, 0.5, 0.9}) {
    std::stringstream truncated(
        artifact.substr(0, static_cast<std::size_t>(artifact.size() * fraction)));
    EXPECT_THROW((void)load_model(truncated), std::runtime_error) << fraction;
  }
}

TEST(SerializePacked, RejectsWrongDimension) {
  // A dimension header that disagrees with the counter rows must be caught
  // in both directions: too large -> short row, too small -> trailing
  // garbage after the row.
  {
    const std::string text = mutated_packed_artifact([](std::string& t) {
      const auto pos = t.find("dimension 1024");
      t.replace(pos, 14, "dimension 2048");
    });
    std::stringstream in(text);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
  {
    const std::string text = mutated_packed_artifact([](std::string& t) {
      const auto pos = t.find("dimension 1024");
      t.replace(pos, 14, "dimension 512");
    });
    std::stringstream in(text);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
}

TEST(SerializePacked, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "graphhd_packed_model_test.ghd";
  auto original = trained_model(packed_config());
  save_model(original, path);
  auto restored = load_model(path);
  EXPECT_EQ(restored.config().backend, Backend::kPackedBinary);
  EXPECT_EQ(restored.predict(cycle_graph(9)).label, original.predict(cycle_graph(9)).label);
  fs::remove(path);
}

TEST(Serialize, ArtifactIsCompact) {
  // A 1024-dimensional 2-class model serializes to a few KB — the
  // deployable-artifact property the IoT story needs.
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  EXPECT_LT(buffer.str().size(), 32u * 1024u);
}

// ---------------------------------------------------------------------------
// Binary artifact v3: sniffing, snapshot loads (full read and mmap),
// inspection, atomic writes.
// ---------------------------------------------------------------------------

TEST(SerializeV3, TextRoundTripStillWorks) {
  // The legacy writer stays available and the sniffing loader accepts it.
  auto original = trained_model();
  std::stringstream buffer;
  save_model_text(original, buffer);
  EXPECT_EQ(buffer.str().rfind("GRAPHHD-MODEL 2", 0), 0u);
  auto restored = load_model(buffer);
  EXPECT_EQ(restored.predict(star_graph(9)).label, original.predict(star_graph(9)).label);
}

TEST(SerializeV3, BinaryArtifactStartsWithMagic) {
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  EXPECT_EQ(buffer.str().rfind("GHDMDL3\n", 0), 0u);
}

struct TempArtifact {
  std::filesystem::path path;
  explicit TempArtifact(const char* name)
      : path(std::filesystem::temp_directory_path() / name) {}
  ~TempArtifact() { std::filesystem::remove(path); }
};

void expect_snapshot_matches_model(GraphHdModel& model,
                                   const std::shared_ptr<const InferenceSnapshot>& snapshot) {
  GraphHdEncoder encoder(snapshot->config());
  const auto probes = toy_dataset(4);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto expected = model.predict(probes.graph(i));
    const auto actual = snapshot->predict_encoded(encoder.encode_packed(probes.graph(i)));
    EXPECT_EQ(actual.label, expected.label) << "probe " << i;
    EXPECT_EQ(actual.score, expected.score) << "probe " << i;  // bit-identical.
    EXPECT_EQ(actual.class_scores, expected.class_scores) << "probe " << i;
  }
}

TEST(SerializeV3, SnapshotLoadFullReadIsBitIdentical) {
  for (const Backend backend : {Backend::kDenseBipolar, Backend::kPackedBinary}) {
    GraphHdConfig config = small_config();
    config.backend = backend;
    auto model = trained_model(config);
    TempArtifact artifact("graphhd_v3_read_test.ghd");
    save_model(model, artifact.path);
    const auto snapshot = load_snapshot(artifact.path, SnapshotLoad::kRead);
    expect_snapshot_matches_model(model, snapshot);
  }
}

TEST(SerializeV3, SnapshotLoadMmapIsBitIdentical) {
  for (const Backend backend : {Backend::kDenseBipolar, Backend::kPackedBinary}) {
    GraphHdConfig config = small_config();
    config.backend = backend;
    auto model = trained_model(config);
    TempArtifact artifact("graphhd_v3_mmap_test.ghd");
    save_model(model, artifact.path);
    const auto snapshot = load_snapshot(artifact.path, SnapshotLoad::kMmap);
    expect_snapshot_matches_model(model, snapshot);
  }
}

TEST(SerializeV3, MmapSnapshotOutlivesEverythingElse) {
  // The mapping must stay alive as long as any snapshot handle does, even
  // after the model and the path-level objects are gone.
  std::shared_ptr<const InferenceSnapshot> survivor;
  Prediction before;
  {
    auto model = trained_model();
    TempArtifact artifact("graphhd_v3_lifetime_test.ghd");
    save_model(model, artifact.path);
    survivor = load_snapshot(artifact.path, SnapshotLoad::kMmap);
    before = model.predict(star_graph(9));
    // The file is removed by ~TempArtifact here; the mapping persists.
  }
  GraphHdEncoder encoder(survivor->config());
  const auto after = survivor->predict_encoded(encoder.encode_packed(star_graph(9)));
  EXPECT_EQ(after.label, before.label);
  EXPECT_EQ(after.score, before.score);
}

TEST(SerializeV3, SnapshotLoadFromTextArtifactFallsBackToParsing) {
  auto model = trained_model();
  TempArtifact artifact("graphhd_v3_textfallback_test.ghd");
  save_model_text(model, artifact.path);
  for (const SnapshotLoad mode : {SnapshotLoad::kRead, SnapshotLoad::kMmap}) {
    const auto snapshot = load_snapshot(artifact.path, mode);
    expect_snapshot_matches_model(model, snapshot);
  }
}

TEST(SerializeV3, LoadedModelResumesTraining) {
  // v3 carries the raw counters, so a binary artifact upgrades back into a
  // full trainer (model_from_snapshot under the hood).
  auto original = trained_model();
  std::stringstream buffer;
  save_model(original, buffer);
  auto restored = load_model(buffer);
  restored.partial_fit(star_graph(10), 0);
  EXPECT_EQ(restored.predict(star_graph(9)).label, 0u);
}

TEST(SerializeV3, InspectReportsSectionsAndChecksums) {
  GraphHdConfig config = small_config();
  config.backend = Backend::kPackedBinary;
  config.vectors_per_class = 2;
  auto model = trained_model(config);
  TempArtifact artifact("graphhd_v3_inspect_test.ghd");
  save_model(model, artifact.path);

  const auto info = inspect_model(artifact.path);
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.backend, Backend::kPackedBinary);
  EXPECT_EQ(info.dimension, config.dimension);
  EXPECT_EQ(info.num_classes, 2u);
  EXPECT_EQ(info.vectors_per_class, 2u);
  EXPECT_TRUE(info.fitted);
  EXPECT_TRUE(info.checksums_ok);
  ASSERT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.sections[0].name, "config");
  EXPECT_EQ(info.sections[1].name, "counters");
  EXPECT_EQ(info.sections[2].name, "packed-words");
  // 4 slots (2 classes x 2 prototypes) x 1024 counters x 4 bytes.
  EXPECT_EQ(info.sections[1].length, 4u * 1024u * 4u);
  EXPECT_EQ(info.sections[2].length, 4u * (1024u / 64u) * 8u);
  for (const auto& section : info.sections) EXPECT_TRUE(section.checksum_ok) << section.name;
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(artifact.path));
}

TEST(SerializeV3, InspectReadsTextArtifactsWithoutBuildingAModel) {
  auto model = trained_model();
  TempArtifact artifact("graphhd_v3_inspect_text_test.ghd");
  save_model_text(model, artifact.path);
  const auto info = inspect_model(artifact.path);
  EXPECT_EQ(info.version, 2);
  EXPECT_EQ(info.backend, Backend::kDenseBipolar);
  EXPECT_EQ(info.dimension, 1024u);
  EXPECT_EQ(info.num_classes, 2u);
  EXPECT_TRUE(info.fitted);
  EXPECT_TRUE(info.sections.empty());
  EXPECT_TRUE(info.checksums_ok);
}

TEST(SerializeV3, FlippedPayloadByteFailsChecksumEverywhere) {
  auto model = trained_model();
  TempArtifact artifact("graphhd_v3_corrupt_test.ghd");
  save_model(model, artifact.path);

  // Flip one byte in the middle of the counters section.
  const auto clean_info = inspect_model(artifact.path);
  const auto& counters = clean_info.sections[1];
  {
    std::fstream file(artifact.path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(counters.offset + counters.length / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(counters.offset + counters.length / 2));
    file.put(static_cast<char>(byte ^ 0x40));
  }
  const auto info = inspect_model(artifact.path);
  EXPECT_FALSE(info.checksums_ok);
  EXPECT_TRUE(info.sections[0].checksum_ok);
  EXPECT_FALSE(info.sections[1].checksum_ok);
  EXPECT_THROW((void)load_model(artifact.path), std::runtime_error);
  EXPECT_THROW((void)load_snapshot(artifact.path, SnapshotLoad::kRead), std::runtime_error);
}

TEST(SerializeV3, MmapVerifiesTheConfigChecksum) {
  // The zero-copy path skips the bulk checksums by design, but a corrupt
  // config section must still be rejected before any query runs.
  auto model = trained_model();
  TempArtifact artifact("graphhd_v3_mmap_config_test.ghd");
  save_model(model, artifact.path);
  const auto clean_info = inspect_model(artifact.path);
  const auto& config_section = clean_info.sections[0];
  {
    std::fstream file(artifact.path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(config_section.offset + 8));
    file.put('\x7f');  // garble pagerank_iterations.
  }
  EXPECT_THROW((void)load_snapshot(artifact.path, SnapshotLoad::kMmap), std::runtime_error);
}

TEST(SerializeV3, TruncatedBinaryArtifactIsRejected) {
  auto model = trained_model();
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string full = buffer.str();
  for (const std::size_t keep : {std::size_t{4}, std::size_t{15}, std::size_t{100},
                                 full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, keep));
    EXPECT_THROW((void)load_model(truncated), std::runtime_error) << "kept " << keep;
  }
}

TEST(SerializeV3, AtomicWritePreservesDestinationOnFailure) {
  // Regression for the truncate-before-write bug: save_model(path) used to
  // open the destination with default (truncating) flags, so a failure mid
  // write destroyed the existing artifact.  The atomic temp-file protocol
  // must leave the previous bytes untouched on any failure.
  namespace fs = std::filesystem;
  TempArtifact artifact("graphhd_v3_atomic_test.ghd");
  auto model = trained_model();
  save_model(model, artifact.path);
  const auto original_size = fs::file_size(artifact.path);

  EXPECT_THROW(atomic_write_file(artifact.path,
                                 [](std::ostream& out) {
                                   out << "partial garbage";
                                   throw std::runtime_error("injected mid-write failure");
                                 }),
               std::runtime_error);

  // The destination still holds the complete, loadable original...
  EXPECT_EQ(fs::file_size(artifact.path), original_size);
  auto restored = load_model(artifact.path);
  EXPECT_EQ(restored.predict(star_graph(9)).label, model.predict(star_graph(9)).label);
  // ...and the failed attempt left no temp file behind.
  std::size_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(artifact.path.parent_path())) {
    if (entry.path().filename().string().rfind(artifact.path.filename().string() + ".tmp", 0) ==
        0) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u);
}

TEST(SerializeV3, SaveSnapshotEqualsSaveModel) {
  auto model = trained_model();
  std::stringstream via_model, via_snapshot;
  save_model(model, via_model);
  save_snapshot(*model.snapshot(), via_snapshot);
  EXPECT_EQ(via_model.str(), via_snapshot.str());
}

}  // namespace
