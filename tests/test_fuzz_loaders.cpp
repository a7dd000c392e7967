/// Differential fuzz harness for the on-disk formats: randomly truncated,
/// byte-flipped or garbage-injected TUDataset directories and model
/// artifacts (text v2 and binary v3) must either load successfully or fail
/// with a clean std::exception — never crash, hang, or attempt an absurd
/// allocation.
/// The CI Debug row runs this file under ASan/UBSan, which is where the
/// "never crash" half of the contract actually bites (sanitizer allocators
/// abort on pathological allocation sizes instead of throwing bad_alloc).
///
/// Built on tests/support/proptest.hpp: every mutation is a replayable
/// seeded case, and failures shrink toward earlier/smaller corruption.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "support/proptest.hpp"

namespace {

namespace fs = std::filesystem;
using namespace graphhd;
namespace proptest = graphhd::proptest;

/// One random corruption of one file of a fixture.
struct Mutation {
  std::size_t file_index = 0;
  enum Kind { kTruncate, kFlipByte, kInsertGarbage } kind = kTruncate;
  std::size_t offset = 0;     ///< byte position the mutation anchors to.
  unsigned char byte = 0;     ///< xor mask / inserted byte.
};

std::ostream& operator<<(std::ostream& out, const Mutation& m) {
  const char* kind = m.kind == Mutation::kTruncate    ? "truncate"
                     : m.kind == Mutation::kFlipByte  ? "flip"
                                                      : "insert";
  return out << kind << " file#" << m.file_index << " @" << m.offset << " byte="
             << static_cast<int>(m.byte);
}

[[nodiscard]] Mutation random_mutation(hdc::Rng& rng, std::size_t num_files) {
  Mutation m;
  m.file_index = rng.next_below(num_files);
  m.kind = static_cast<Mutation::Kind>(rng.next_below(3));
  m.offset = static_cast<std::size_t>(rng.next_below(1 << 16));  // clamped per file later.
  m.byte = static_cast<unsigned char>(rng.next_below(256));
  return m;
}

/// Shrinks toward offset 0 and the "truncate" kind (the simplest corruption).
[[nodiscard]] std::vector<Mutation> shrink_mutation(const Mutation& m) {
  std::vector<Mutation> out;
  if (m.offset > 0) {
    Mutation halved = m;
    halved.offset /= 2;
    out.push_back(halved);
  }
  if (m.kind != Mutation::kTruncate) {
    Mutation simpler = m;
    simpler.kind = Mutation::kTruncate;
    out.push_back(simpler);
  }
  return out;
}

[[nodiscard]] std::string apply_mutation(std::string content, const Mutation& m) {
  if (content.empty()) return content;
  const std::size_t offset = m.offset % content.size();
  switch (m.kind) {
    case Mutation::kTruncate:
      content.resize(offset);
      break;
    case Mutation::kFlipByte:
      content[offset] = static_cast<char>(static_cast<unsigned char>(content[offset]) ^
                                          (m.byte == 0 ? 1 : m.byte));
      break;
    case Mutation::kInsertGarbage:
      content.insert(offset, 1, static_cast<char>(m.byte));
      break;
  }
  return content;
}

// ---------------------------------------------------------------------------
// TUDataset directory fuzz (materialized loader + streaming reader).
// ---------------------------------------------------------------------------

[[nodiscard]] bool same_dataset(const data::GraphDataset& a, const data::GraphDataset& b,
                                std::ostream& diag) {
  if (a.size() != b.size() || a.num_classes() != b.num_classes() ||
      a.has_vertex_labels() != b.has_vertex_labels()) {
    diag << " [readers disagree on the dataset's shape]";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.graph(i) != b.graph(i) || a.label(i) != b.label(i) ||
        (a.has_vertex_labels() && a.vertex_labels()[i] != b.vertex_labels()[i])) {
      diag << " [readers disagree on graph " << i << "]";
      return false;
    }
  }
  return true;
}

class TUDatasetFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("graphhd_fuzz_" + std::to_string(::getpid())));
    fs::create_directories(*dir_);
    const auto dataset = data::make_synthetic_replica("MUTAG", /*seed=*/3, /*scale=*/0.05);
    data::save_tudataset(dataset, *dir_);
    for (const char* suffix :
         {"_A.txt", "_graph_indicator.txt", "_graph_labels.txt", "_node_labels.txt"}) {
      std::ifstream in(*dir_ / ("MUTAG" + std::string(suffix)), std::ios::binary);
      ASSERT_TRUE(static_cast<bool>(in)) << suffix;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      originals_.push_back({std::string(suffix), buffer.str()});
    }
  }

  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    originals_.clear();
  }

  /// Writes the pristine files, then the mutated one on top.
  static void install(const Mutation& m) {
    for (std::size_t i = 0; i < originals_.size(); ++i) {
      const std::string content = i == m.file_index
                                      ? apply_mutation(originals_[i].second, m)
                                      : originals_[i].second;
      std::ofstream out(*dir_ / ("MUTAG" + originals_[i].first), std::ios::binary);
      out << content;
    }
  }

  static fs::path* dir_;
  static std::vector<std::pair<std::string, std::string>> originals_;
};

fs::path* TUDatasetFuzz::dir_ = nullptr;
std::vector<std::pair<std::string, std::string>> TUDatasetFuzz::originals_;

TEST_F(TUDatasetFuzz, CorruptFilesNeverCrashEitherReader) {
  proptest::check<Mutation>(
      "corrupt TUDataset loads cleanly or errors cleanly",
      [&](hdc::Rng& rng, std::size_t) { return random_mutation(rng, originals_.size()); },
      shrink_mutation,
      [&](const Mutation& m, std::ostream& diag) {
        diag << m;
        install(m);
        // Materialized loader.
        std::optional<data::GraphDataset> loaded;
        try {
          loaded = data::load_tudataset(*dir_, "MUTAG");
          diag << " [loader ok: " << loaded->size() << " graphs]";
        } catch (const std::exception& error) {
          diag << " [loader error: " << error.what() << "]";
        }
        // Streaming reader (constructor + full drain).
        std::optional<data::GraphDataset> streamed;
        try {
          data::TUDatasetStream stream(*dir_, "MUTAG");
          streamed = data::materialize(stream, "MUTAG");
          diag << " [stream ok: " << streamed->size() << " graphs]";
        } catch (const std::exception& error) {
          diag << " [stream error: " << error.what() << "]";
        }
        // Surviving to this point is the property, and when both readers
        // accept a directory they must read the same dataset.
        return !loaded || !streamed || same_dataset(*loaded, *streamed, diag);
      },
      proptest::Config{.cases = 64});
  // Restore the pristine directory for any later test.
  install(Mutation{.file_index = originals_.size() + 1});
}

// ---------------------------------------------------------------------------
// Model artifact fuzz (text v2 and binary v3, both backends).
// ---------------------------------------------------------------------------

[[nodiscard]] core::GraphHdModel trained_fuzz_model(core::Backend backend) {
  core::GraphHdConfig config;
  config.dimension = 96;
  config.backend = backend;
  const auto dataset = data::make_synthetic_replica("MUTAG", /*seed=*/5, /*scale=*/0.05);
  core::GraphHdModel model(config, dataset.num_classes());
  model.fit(dataset);
  return model;
}

[[nodiscard]] std::string trained_model_text(core::Backend backend) {
  const auto model = trained_fuzz_model(backend);
  std::ostringstream out;
  core::save_model_text(model, out);
  return out.str();
}

[[nodiscard]] std::string trained_model_binary(core::Backend backend) {
  const auto model = trained_fuzz_model(backend);
  std::ostringstream out;
  core::save_model(model, out);
  return out.str();
}

void fuzz_model_artifact(const std::string& pristine, const char* label) {
  {
    // Sanity: the unmutated artifact round-trips.
    std::istringstream in(pristine);
    EXPECT_NO_THROW((void)core::load_model(in)) << label;
  }
  proptest::check<Mutation>(
      label, [&](hdc::Rng& rng, std::size_t) { return random_mutation(rng, 1); },
      shrink_mutation,
      [&](const Mutation& m, std::ostream& diag) {
        diag << m;
        std::istringstream in(apply_mutation(pristine, m));
        try {
          const auto model = core::load_model(in);
          diag << " [ok: " << model.num_classes() << " classes]";
        } catch (const std::exception& error) {
          diag << " [error: " << error.what() << "]";
        }
        return true;  // no crash, no sanitizer abort, no runaway allocation.
      },
      proptest::Config{.cases = 256});
}

TEST(ModelArtifactFuzz, DenseArtifactNeverCrashes) {
  fuzz_model_artifact(trained_model_text(core::Backend::kDenseBipolar),
                      "corrupt dense model-v2 artifact");
}

TEST(ModelArtifactFuzz, PackedArtifactNeverCrashes) {
  fuzz_model_artifact(trained_model_text(core::Backend::kPackedBinary),
                      "corrupt packed model-v2 artifact");
}

TEST(ModelArtifactFuzz, DenseBinaryArtifactNeverCrashes) {
  fuzz_model_artifact(trained_model_binary(core::Backend::kDenseBipolar),
                      "corrupt dense model-v3 artifact");
}

TEST(ModelArtifactFuzz, PackedBinaryArtifactNeverCrashes) {
  fuzz_model_artifact(trained_model_binary(core::Backend::kPackedBinary),
                      "corrupt packed model-v3 artifact");
}

/// Binary fuzz through the *snapshot* loaders as well: kRead verifies every
/// checksum, kMmap verifies the header + config only — both must degrade to
/// clean exceptions on arbitrary corruption, including the zero-copy path
/// (a mapped borrow must not be constructed from an inconsistent layout).
TEST(ModelArtifactFuzz, CorruptBinarySnapshotLoadsNeverCrash) {
  const std::string pristine = trained_model_binary(core::Backend::kPackedBinary);
  const fs::path path =
      fs::temp_directory_path() / ("graphhd_snapfuzz_" + std::to_string(::getpid()) + ".ghd");
  proptest::check<Mutation>(
      "corrupt v3 artifact snapshot-loads cleanly or errors cleanly",
      [&](hdc::Rng& rng, std::size_t) { return random_mutation(rng, 1); }, shrink_mutation,
      [&](const Mutation& m, std::ostream& diag) {
        diag << m;
        std::ofstream(path, std::ios::binary) << apply_mutation(pristine, m);
        for (const auto mode : {core::SnapshotLoad::kRead, core::SnapshotLoad::kMmap}) {
          try {
            const auto snapshot = core::load_snapshot(path, mode);
            diag << " [ok: " << snapshot->slots() << " slots]";
          } catch (const std::exception& error) {
            diag << " [error: " << error.what() << "]";
          }
        }
        return true;
      },
      proptest::Config{.cases = 128});
  fs::remove(path);
}

/// Targeted v3 regressions: each known failure mode must be rejected with a
/// clean error, not a crash or a bogus snapshot.
TEST(ModelArtifactFuzz, TargetedBinaryCorruptionsAreRejected) {
  const std::string pristine = trained_model_binary(core::Backend::kDenseBipolar);
  const auto expect_rejected = [](std::string artifact, const char* what) {
    std::istringstream in(artifact);
    EXPECT_THROW((void)core::load_model(in), std::runtime_error) << what;
  };

  // Truncations: inside the magic, the section table, and each section.
  for (const std::size_t keep : {std::size_t{3}, std::size_t{20}, std::size_t{111},
                                 std::size_t{200}, pristine.size() - 1}) {
    expect_rejected(pristine.substr(0, keep), "truncation");
  }
  {  // Unsupported version (offset 8, little-endian u32).
    std::string artifact = pristine;
    artifact[8] = 9;
    expect_rejected(std::move(artifact), "bad version");
  }
  {  // Absurd section count must die in the table bounds check.
    std::string artifact = pristine;
    artifact[12] = '\xff';
    artifact[13] = '\xff';
    expect_rejected(std::move(artifact), "oversized section count");
  }
  {  // Misaligned section offset (config entry offset at byte 16+8).
    std::string artifact = pristine;
    artifact[24] = static_cast<char>(artifact[24] + 1);
    expect_rejected(std::move(artifact), "misaligned offset");
  }
  {  // Section length pointing past end of file.
    std::string artifact = pristine;
    artifact[32 + 3] = '\x7f';  // config entry length, high byte of low word.
    expect_rejected(std::move(artifact), "length past EOF");
  }
  {  // Flipped payload byte: checksum mismatch.
    std::string artifact = pristine;
    artifact[artifact.size() / 2] = static_cast<char>(artifact[artifact.size() / 2] ^ 0x10);
    expect_rejected(std::move(artifact), "payload bit rot");
  }
}

/// Targeted regressions for the allocation-bound hardening: oversized header
/// fields must be rejected by the artifact sanity bounds, not attempted.
TEST(ModelArtifactFuzz, OversizedHeaderFieldsAreRejectedUpFront) {
  const std::string pristine = trained_model_text(core::Backend::kDenseBipolar);
  const auto with_field = [&](const std::string& key, const std::string& value) {
    std::istringstream in(pristine);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(key + " ", 0) == 0) {
        out << key << ' ' << value << '\n';
      } else {
        out << line << '\n';
      }
    }
    return out.str();
  };
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{{"dimension", "999999999999"},
                                                        {"num_classes", "99999999"},
                                                        {"vectors_per_class", "99999999"}}) {
    std::istringstream in(with_field(key, value));
    EXPECT_THROW((void)core::load_model(in), std::runtime_error) << key << '=' << value;
  }
}

}  // namespace
