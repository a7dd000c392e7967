/// \file serialize.hpp
/// Model persistence for GraphHD — text artifacts v1/v2 and the binary,
/// mmap-able artifact v3.
///
/// The paper's deployment target is embedded/IoT devices: a model trained
/// off-device must be shippable as a small artifact.  A trained GraphHD
/// model is exactly its configuration plus the integer class accumulators
/// (the basis vectors regenerate from the seed), so the serialized form is
/// tiny and bit-exact across machines.
///
/// Three artifact versions coexist:
///
///  * v1/v2 — the legacy line-oriented text format (v2 added a `backend`
///    header line).  Diffable and endian-proof, but every load re-parses
///    (num_classes x vectors_per_class x dimension) counter tokens.
///    load_model still reads both; save_model_text still writes v2.
///
///  * v3 — a little-endian binary section format written by save_model:
///
///        offset 0   magic "GHDMDL3\n" (8 bytes)
///        offset 8   u32 version (3), u32 section count
///        offset 16  section table: per section
///                   {u32 id, u32 reserved, u64 offset, u64 length,
///                    u64 checksum (FNV-1a 64 over the section bytes)}
///        ...        sections, each 8-byte aligned:
///                   id 1  config — the 72-byte config block of
///                         core/codec.hpp (the ServerHello's config bytes,
///                         plus `fitted` in flag bit 3), num_classes,
///                         replica cursors, per-slot metadata
///                         (sample count, add count, tie parity)
///                   id 2  counters — raw int32 signed counters,
///                         slots x dimension, row-major
///                   id 3  packed-words — the finalized (majority-quantized)
///                         class vectors, slots x ceil(dimension/64) u64
///                   id 4  progress — mid-training checkpoint state
///                         (save_checkpoint only; loaders that predate the
///                         section ignore it, so every checkpoint is also a
///                         valid model artifact)
///
///    Because section 3 stores the *precomputed* class words, a cold process
///    can mmap the file and answer its first query without parsing a single
///    counter: load_snapshot(path, SnapshotLoad::kMmap) borrows the mapped
///    sections zero-copy (the 8-byte alignment makes the in-file layout the
///    in-memory layout) and verifies only the header + config checksum —
///    bulk-section checksums are verified by the full-read path and by
///    inspect_model, where touching every byte is the point.
///
/// All loaders sniff the magic, so load_model accepts any version; the CLI
/// `convert` subcommand (and save_model on a loaded legacy model) upgrades
/// v1/v2 files to v3.  Writes to a path go through atomic_write_file — temp
/// file in the same directory, then rename — so a crash mid-save never
/// leaves a corrupt or truncated artifact behind.

#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/snapshot.hpp"

namespace graphhd::core {

/// How load_snapshot materializes a v3 artifact.
enum class SnapshotLoad {
  kRead,  ///< read the whole file, own the buffers, verify every checksum.
  kMmap,  ///< zero-copy: borrow the mapped sections (header/config checksum
          ///< only).  Text artifacts are parsed instead.
  kAuto,  ///< the same as kMmap.
};

/// Writes `model` as a v3 binary artifact.  Throws std::runtime_error on
/// stream failure.
void save_model(const GraphHdModel& model, std::ostream& out);

/// Writes `model` to `path` as v3, atomically (temp file + rename).
void save_model(const GraphHdModel& model, const std::filesystem::path& path);

/// Writes a snapshot as a v3 binary artifact (what save_model does after
/// taking model.snapshot(); exposed so an mmap-served snapshot can be
/// re-saved without constructing a trainer).
void save_snapshot(const InferenceSnapshot& snapshot, std::ostream& out);
void save_snapshot(const InferenceSnapshot& snapshot, const std::filesystem::path& path);

/// Writes `model` in the legacy v2 text format (diffable, endian-proof;
/// kept for compatibility tooling and fixtures).
void save_model_text(const GraphHdModel& model, std::ostream& out);

/// Text v2 to `path`, atomically.
void save_model_text(const GraphHdModel& model, const std::filesystem::path& path);

/// Reads a model written by any save_model version (sniffs text v1/v2 vs
/// binary v3).  The reconstructed model produces bit-identical predictions
/// (same config seed => same basis vectors, same accumulators => same class
/// vectors).  Throws std::runtime_error on malformed input, checksum
/// mismatch or version mismatch.
[[nodiscard]] GraphHdModel load_model(std::istream& in);

/// Reads a model from `path`.
[[nodiscard]] GraphHdModel load_model(const std::filesystem::path& path);

/// Loads an artifact directly into an immutable inference snapshot — the
/// cold-start path: no trainer, no counter parsing (v3), optionally
/// zero-copy via mmap.  Accepts v1/v2 text artifacts too (parsed and
/// converted in memory).  See SnapshotLoad for the mode semantics.
[[nodiscard]] std::shared_ptr<const InferenceSnapshot> load_snapshot(
    const std::filesystem::path& path, SnapshotLoad mode = SnapshotLoad::kAuto);

// CheckpointProgress (the payload of the progress section, id 4) lives in
// core/options.hpp next to TrainOptions: GraphHdModel::fit_stream_shard
// returns it, and model.hpp cannot include this header back.

/// Writes `model` plus training progress to `path` as a v3 artifact with a
/// progress section, atomically (temp file + rename — a crash mid-save
/// leaves the previous checkpoint intact).  The file is also a complete
/// model artifact: load_model / load_snapshot read it and ignore the
/// progress section.
void save_checkpoint(const GraphHdModel& model, const CheckpointProgress& progress,
                     const std::filesystem::path& path);

/// A checkpoint read back: the restored trainer plus where training stood.
struct ResumedCheckpoint {
  GraphHdModel model;
  CheckpointProgress progress;
};

/// Reads a checkpoint written by save_checkpoint, verifying every section
/// checksum (truncation or bit rot surfaces as a clean std::runtime_error,
/// never as a silently wrong model).  A plain model artifact without a
/// progress section is rejected — it carries no resume point.
[[nodiscard]] ResumedCheckpoint resume_checkpoint(const std::filesystem::path& path);

/// Result of merge_checkpoint_files: the exact merged counter state plus a
/// progress record describing it (sum of shard samples, bundle complete,
/// topology collapsed back to {1, 0} so the merged file is itself a valid
/// single-stream checkpoint — save it and `resume` to finish retraining).
struct MergedCheckpoints {
  GraphHdModel model;
  CheckpointProgress progress;
};

/// Merges the per-shard checkpoint artifacts of one sharded bundling pass —
/// possibly produced on different machines — into the single model a
/// one-process sharded fit would have bundled (byte-for-byte: merge is exact
/// counter addition, applied in shard-index order).  Every input must be a
/// bundle-complete checkpoint written under the same config/class count with
/// `shard_count == inputs.size()`, and the shard indices must cover
/// 0..W-1 exactly once; progress-v1 checkpoints (unknown topology) are
/// rejected.  Throws std::invalid_argument on an empty input list and
/// std::runtime_error on any incompatibility.  The merged model is *not*
/// fitted — run the retraining epochs (GraphHdModel::finish_training) to get
/// the final model.
[[nodiscard]] MergedCheckpoints merge_checkpoint_files(
    const std::vector<std::filesystem::path>& inputs);

/// One section of a v3 artifact as reported by inspect_model.
struct SectionInfo {
  std::uint32_t id = 0;
  std::string name;            ///< "config", "counters", "packed-words", or "unknown".
  std::uint64_t offset = 0;
  std::uint64_t length = 0;    ///< bytes, excluding alignment padding.
  bool checksum_ok = false;
};

/// Header-level description of a model artifact (any version), obtained
/// without constructing a model.
struct ModelArtifactInfo {
  int version = 0;             ///< 1, 2 (text) or 3 (binary).
  Backend backend = Backend::kDenseBipolar;
  std::size_t dimension = 0;
  std::size_t num_classes = 0;
  std::size_t vectors_per_class = 1;
  bool quantized = true;
  bool fitted = false;
  std::uintmax_t file_bytes = 0;
  std::vector<SectionInfo> sections;  ///< empty for text artifacts.
  bool checksums_ok = true;           ///< all section checksums verified (v3);
                                      ///< trivially true for text artifacts.
};

/// Inspects an artifact's header (and, for v3, verifies every section
/// checksum) without building a model: the `graphhd_cli model-info` backend.
/// Throws std::runtime_error when the file is not a model artifact at all.
[[nodiscard]] ModelArtifactInfo inspect_model(const std::filesystem::path& path);

/// Crash-safe file write: runs `write` against a temp file in `path`'s
/// directory, then atomically renames it over `path`.  The destination is
/// never truncated or partially written — on any failure (including `write`
/// throwing) the temp file is removed and the previous `path` content
/// survives.  Exposed (rather than kept private to save_model) so tests can
/// drive the failure path with an injected writer.
void atomic_write_file(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& write);

}  // namespace graphhd::core
