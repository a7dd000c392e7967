#include "core/serialize.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "hdc/random.hpp"

namespace graphhd::core {

namespace {

/// What every artifact check throws: a std::runtime_error whose message
/// starts with "load_model: ".
class LoadError : public std::runtime_error {
 public:
  explicit LoadError(const std::string& message) : std::runtime_error("load_model: " + message) {}
};

using Reader = codec::ByteReader<LoadError>;

void require(bool condition, const std::string& message) {
  if (!condition) {
    throw LoadError(message);
  }
}

// ======================= text format (v1 / v2) =======================

constexpr const char* kTextMagic = "GRAPHHD-MODEL";
/// Version 1: dense-backend models, no `backend` header line.
/// Version 2: adds the `backend` line (dense and packed models).  The slot
/// counter rows are backend-agnostic signed counters in both versions, so a
/// version-1 file is simply a version-2 file with an implicit dense backend
/// — load_model still accepts it.
constexpr int kTextVersion = 2;

[[nodiscard]] std::string read_line(std::istream& in, const char* what) {
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), std::string("missing ") + what);
  return line;
}

/// "key value..." line helpers — the header is self-describing so future
/// versions can add fields without breaking old readers of old files.
[[nodiscard]] std::string expect_key(const std::string& line, const std::string& key) {
  require(line.rfind(key + " ", 0) == 0, "expected '" + key + "' line, got '" + line + "'");
  return line.substr(key.size() + 1);
}

/// Strict numeric parser that names the offending key.  The stoX family is
/// too lenient for a corrupt-file gate: std::stoull("-1") silently wraps to
/// 2^64-1 (which would pass validate() and then die in an allocation) and
/// "123abc" parses as 123.  Every value here is a whole single token, so we
/// require the conversion to consume the entire string.
template <typename Value, typename Convert>
[[nodiscard]] Value parse_number(const std::string& text, const char* key, Convert convert) {
  try {
    std::size_t consumed = 0;
    const Value value = convert(text, &consumed);
    require(consumed == text.size(),
            "bad value '" + text + "' for key '" + key + "' (trailing garbage)");
    return value;
  } catch (const std::runtime_error&) {
    throw;  // the require() above.
  } catch (const std::exception&) {
    throw std::runtime_error("load_model: bad value '" + text + "' for key '" + key + "'");
  }
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& text, const char* key) {
  // Must start with a digit: stoull would skip leading whitespace and wrap a
  // negative sign to 2^64-1, so checking text[0] != '-' alone is bypassable
  // with ' -1'.
  require(!text.empty() && text[0] >= '0' && text[0] <= '9',
          "bad value '" + text + "' for key '" + key + "' (must be a non-negative integer)");
  return parse_number<std::uint64_t>(
      text, key, [](const std::string& s, std::size_t* pos) { return std::stoull(s, pos); });
}

[[nodiscard]] int parse_int(const std::string& text, const char* key) {
  return parse_number<int>(
      text, key, [](const std::string& s, std::size_t* pos) { return std::stoi(s, pos); });
}

[[nodiscard]] double parse_double(const std::string& text, const char* key) {
  return parse_number<double>(
      text, key, [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

/// The header of a v1/v2 text artifact: everything before the cursor line.
struct TextHeader {
  int version = 0;
  GraphHdConfig config;
  std::size_t num_classes = 0;
  bool fitted = false;
};

/// Parses a text artifact's header with the codec's checks (enum tags,
/// check_config, check_layout), so load_model and inspect_model accept
/// exactly the same files, and the same configs as a v3 artifact.
[[nodiscard]] TextHeader parse_text_header(std::istream& in) {
  TextHeader parsed;
  int& version = parsed.version;
  {
    std::istringstream header(read_line(in, "magic line"));
    std::string magic;
    header >> magic >> version;
    require(magic == kTextMagic, "bad magic '" + magic + "'");
    require(version >= 1 && version <= kTextVersion,
            "unsupported version " + std::to_string(version));
  }
  GraphHdConfig& config = parsed.config;
  const auto read_value = [&in](const char* key) {
    return expect_key(read_line(in, key), key);
  };
  // Version 1 predates the backend knob: implicit dense.
  const int backend = version >= 2 ? parse_int(read_value("backend"), "backend") : 0;
  config.dimension = parse_u64(read_value("dimension"), "dimension");
  config.pagerank_iterations =
      parse_u64(read_value("pagerank_iterations"), "pagerank_iterations");
  config.pagerank_damping = parse_double(read_value("pagerank_damping"), "pagerank_damping");
  const int identifier = parse_int(read_value("identifier"), "identifier");
  const int metric = parse_int(read_value("metric"), "metric");
  codec::set_tags<LoadError>(config, identifier, metric, backend);
  config.quantized_model = parse_int(read_value("quantized"), "quantized") != 0;
  config.use_bitslice_bundling = parse_int(read_value("bitslice"), "bitslice") != 0;
  config.retrain_epochs = parse_u64(read_value("retrain_epochs"), "retrain_epochs");
  config.vectors_per_class = parse_u64(read_value("vectors_per_class"), "vectors_per_class");
  config.use_vertex_labels = parse_int(read_value("use_vertex_labels"), "use_vertex_labels") != 0;
  config.neighborhood_rounds =
      parse_u64(read_value("neighborhood_rounds"), "neighborhood_rounds");
  config.seed = parse_u64(read_value("seed"), "seed");
  codec::check_config<LoadError>(config);
  parsed.num_classes = parse_u64(read_value("num_classes"), "num_classes");
  codec::check_layout<LoadError>(config, parsed.num_classes);
  parsed.fitted = parse_int(read_value("fitted"), "fitted") != 0;
  return parsed;
}

[[nodiscard]] GraphHdModel load_model_text(std::istream& in) {
  const TextHeader header = parse_text_header(in);
  const GraphHdConfig& config = header.config;
  const std::size_t num_classes = header.num_classes;

  std::vector<std::size_t> cursors;
  {
    std::istringstream line(expect_key(read_line(in, "cursors"), "cursors"));
    std::size_t cursor = 0;
    while (line >> cursor) cursors.push_back(cursor);
    require(cursors.size() == num_classes, "cursor count mismatch");
  }

  GraphHdModel model(config, num_classes);
  const std::size_t slots = num_classes * config.vectors_per_class;
  std::vector<hdc::BundleAccumulator> accumulators;
  std::vector<std::size_t> sample_counts;
  accumulators.reserve(slots);
  sample_counts.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::istringstream header(expect_key(read_line(in, "slot header"), "slot"));
    std::size_t slot_id = 0, samples = 0, add_count = 0;
    int parity = 0;
    header >> slot_id >> samples >> add_count >> parity;
    require(static_cast<bool>(header), "malformed slot header");
    require(slot_id == slot, "slot order mismatch");

    std::istringstream counters(read_line(in, "slot counters"));
    std::vector<std::int32_t> counts(config.dimension);
    for (auto& value : counts) {
      require(static_cast<bool>(counters >> value), "short counter row");
    }
    // A counter row must hold *exactly* `dimension` tokens: extra tokens
    // mean the header's dimension and the rows disagree (e.g. a corrupted
    // dimension line), and a garbled token after the last counter would
    // otherwise be silently dropped.
    std::string trailing;
    const bool has_trailing = static_cast<bool>(counters >> trailing);
    require(!has_trailing, "trailing garbage '" + trailing + "' after counter row of slot " +
                               std::to_string(slot));
    accumulators.push_back(
        hdc::BundleAccumulator::from_raw(std::move(counts), add_count, parity != 0));
    sample_counts.push_back(samples);
  }
  model.restore_state(std::move(accumulators), std::move(sample_counts), std::move(cursors),
                      header.fitted);
  return model;
}

// ======================= binary format (v3) =======================

constexpr char kBinaryMagic[8] = {'G', 'H', 'D', 'M', 'D', 'L', '3', '\n'};
constexpr std::uint32_t kBinaryVersion = 3;
constexpr std::uint32_t kSectionConfig = 1;
constexpr std::uint32_t kSectionCounters = 2;
constexpr std::uint32_t kSectionWords = 3;
constexpr std::uint32_t kSectionProgress = 4;
constexpr std::uint32_t kMaxSectionCount = 16;
constexpr std::size_t kHeaderFixedBytes = 16;   // magic + version + section count.
constexpr std::size_t kSectionEntryBytes = 32;  // id + reserved + offset + length + checksum.
// The config block, then num_classes: everything before cursors/slot metadata.
constexpr std::size_t kConfigFixedBytes = codec::kConfigBytes + 8;
constexpr std::uint32_t kFlagFitted = 1u << 3;  // config flag bit 3: the model is fitted.
constexpr std::size_t kSectionAlign = 8;

[[nodiscard]] constexpr std::size_t align_up(std::size_t value) {
  return (value + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

struct BinaryTable {
  std::vector<SectionEntry> sections;
  const SectionEntry* config = nullptr;
  const SectionEntry* counters = nullptr;
  const SectionEntry* words = nullptr;
  const SectionEntry* progress = nullptr;  ///< optional (checkpoints only).
};

[[nodiscard]] bool looks_binary(const unsigned char* data, std::size_t size) {
  return size >= sizeof(kBinaryMagic) &&
         std::memcmp(data, kBinaryMagic, sizeof(kBinaryMagic)) == 0;
}

/// Parses and validates the v3 header + section table: every offset/length
/// in bounds and aligned, exactly one of each known section.  Checksums are
/// NOT verified here — the caller decides which sections to hash (full read
/// verifies all; the mmap fast path verifies config only).
[[nodiscard]] BinaryTable parse_binary_table(const unsigned char* data, std::size_t size) {
  require(looks_binary(data, size), "bad magic (not a model artifact)");
  Reader reader({data + sizeof(kBinaryMagic), size - sizeof(kBinaryMagic)});
  const std::uint32_t version = reader.u32("version");
  require(version == kBinaryVersion,
          "unsupported binary artifact version " + std::to_string(version));
  const std::uint32_t count = reader.u32("section count");
  require(count >= 1 && count <= kMaxSectionCount,
          "section count " + std::to_string(count) + " out of range");
  require(size - kHeaderFixedBytes >= static_cast<std::size_t>(count) * kSectionEntryBytes,
          "truncated section table");

  BinaryTable table;
  table.sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionEntry entry;
    entry.id = reader.u32("section id");
    const std::uint32_t reserved = reader.u32("section reserved field");
    require(reserved == 0, "nonzero reserved field in section table");
    entry.offset = reader.u64("section offset");
    entry.length = reader.u64("section length");
    entry.checksum = reader.u64("section checksum");
    require(entry.offset % kSectionAlign == 0,
            "section " + std::to_string(entry.id) + " offset not 8-byte aligned");
    require(entry.offset >= kHeaderFixedBytes + count * kSectionEntryBytes,
            "section " + std::to_string(entry.id) + " overlaps the header");
    require(entry.offset <= size && entry.length <= size - entry.offset,
            "section " + std::to_string(entry.id) + " extends past end of file");
    table.sections.push_back(entry);
  }
  const auto find_unique = [&table](std::uint32_t id, const char* name) {
    const SectionEntry* found = nullptr;
    for (const SectionEntry& entry : table.sections) {
      if (entry.id != id) continue;
      require(found == nullptr, std::string("duplicate ") + name + " section");
      found = &entry;
    }
    require(found != nullptr, std::string("missing ") + name + " section");
    return found;
  };
  table.config = find_unique(kSectionConfig, "config");
  table.counters = find_unique(kSectionCounters, "counters");
  table.words = find_unique(kSectionWords, "packed-words");
  // Progress is optional (checkpoints only) but still unique when present.
  for (const SectionEntry& entry : table.sections) {
    if (entry.id != kSectionProgress) continue;
    require(table.progress == nullptr, "duplicate progress section");
    table.progress = &entry;
  }
  return table;
}

constexpr std::uint32_t kProgressVersion = 2;
constexpr std::size_t kProgressBytesV1 = 16;  // version + flags + samples_consumed.
constexpr std::size_t kProgressBytes = 32;    // v1 fields + shard_count + shard_index.

[[nodiscard]] CheckpointProgress parse_progress_section(const unsigned char* data,
                                                        std::size_t length) {
  require(length == kProgressBytesV1 || length == kProgressBytes,
          "progress section length " + std::to_string(length) + " (expected " +
              std::to_string(kProgressBytesV1) + " or " + std::to_string(kProgressBytes) + ")");
  Reader reader({data, length});
  const std::uint32_t version = reader.u32("progress version");
  require(version == 1 || version == kProgressVersion,
          "unsupported progress section version " + std::to_string(version));
  require(length == (version == 1 ? kProgressBytesV1 : kProgressBytes),
          "progress section length does not match its version");
  const std::uint32_t flags = reader.u32("progress flags");
  require((flags >> 1) == 0, "unknown progress flag bits set");
  CheckpointProgress progress;
  progress.bundle_complete = (flags & 1u) != 0;
  progress.samples_consumed = reader.u64("progress sample count");
  if (version == 1) {
    // v1 predates the topology fields: shard_count 0 marks it unknown, so
    // resume paths that need the topology reject instead of guessing.
    progress.shard_count = 0;
    progress.shard_index = 0;
    return progress;
  }
  progress.shard_count = reader.u64("progress shard count");
  progress.shard_index = reader.u64("progress shard index");
  require(progress.shard_count >= 1, "progress shard count must be >= 1");
  require(progress.shard_index < progress.shard_count,
          "progress shard index " + std::to_string(progress.shard_index) +
              " out of range for " + std::to_string(progress.shard_count) + " shards");
  return progress;
}

/// Everything the config section carries: the full GraphHdConfig plus the
/// class layout and per-slot training metadata.
struct ParsedConfig {
  GraphHdConfig config;
  std::size_t num_classes = 0;
  bool fitted = false;
  std::vector<std::size_t> cursors;
  std::vector<InferenceSnapshot::SlotMeta> slot_meta;
  std::size_t slots = 0;
  std::size_t words_per_slot = 0;
};

[[nodiscard]] ParsedConfig parse_config_section(const unsigned char* data, std::size_t length) {
  require(length >= kConfigFixedBytes, "config section too short");
  Reader reader({data, length});
  ParsedConfig parsed;
  const codec::ConfigBlock block = codec::read_config(reader);
  require((block.format_flags & ~kFlagFitted) == 0, "unknown config flag bits set");
  parsed.config = block.config;
  parsed.fitted = (block.format_flags & kFlagFitted) != 0;
  parsed.num_classes = reader.u64("num_classes");
  const GraphHdConfig& config = parsed.config;
  codec::check_config<LoadError>(config);
  codec::check_layout<LoadError>(config, parsed.num_classes);

  parsed.slots = parsed.num_classes * config.vectors_per_class;
  parsed.words_per_slot = (config.dimension + 63) / 64;
  const std::size_t expected =
      kConfigFixedBytes + 8 * parsed.num_classes + 24 * parsed.slots;
  require(length == expected, "config section length " + std::to_string(length) +
                                  " does not match class layout (expected " +
                                  std::to_string(expected) + ")");

  parsed.cursors.reserve(parsed.num_classes);
  for (std::size_t c = 0; c < parsed.num_classes; ++c) {
    const std::uint64_t cursor = reader.u64("replica cursor");
    require(cursor < config.vectors_per_class, "replica cursor out of range");
    parsed.cursors.push_back(static_cast<std::size_t>(cursor));
  }
  parsed.slot_meta.reserve(parsed.slots);
  for (std::size_t slot = 0; slot < parsed.slots; ++slot) {
    InferenceSnapshot::SlotMeta meta;
    meta.sample_count = reader.u64("slot sample count");
    meta.add_count = reader.u64("slot add count");
    const std::uint64_t tie_free = reader.u64("slot tie parity");
    require(tie_free <= 1, "slot tie parity must be 0 or 1");
    meta.tie_free = tie_free != 0;
    parsed.slot_meta.push_back(meta);
  }
  return parsed;
}

/// Serializes a snapshot into the complete v3 artifact bytes.  A
/// non-null `progress` appends the checkpoint progress section (id 4).
[[nodiscard]] std::vector<std::uint8_t> build_v3_artifact(
    const InferenceSnapshot& snapshot, const CheckpointProgress* progress = nullptr) {
  const GraphHdConfig& config = snapshot.config();
  const std::size_t slots = snapshot.slots();

  std::vector<std::uint8_t> config_section;
  codec::ByteWriter config_out(config_section);
  codec::write_config(config_out, config, snapshot.fitted() ? kFlagFitted : 0);
  config_out.u64(snapshot.num_classes());
  for (const std::size_t cursor : snapshot.replica_cursors()) config_out.u64(cursor);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const InferenceSnapshot::SlotMeta& meta = snapshot.slot_meta(slot);
    config_out.u64(meta.sample_count);
    config_out.u64(meta.add_count);
    config_out.u64(meta.tie_free ? 1 : 0);
  }

  std::vector<std::uint8_t> counters_section;
  counters_section.reserve(slots * config.dimension * 4);
  codec::ByteWriter counters_out(counters_section);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::span<const std::int32_t> counts = snapshot.counters(slot);
    counters_out.bytes(counts.data(), counts.size_bytes());
  }
  std::vector<std::uint8_t> words_section;
  words_section.reserve(slots * snapshot.words_per_slot() * 8);
  codec::ByteWriter words_out(words_section);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::span<const std::uint64_t> words = snapshot.packed_words(slot);
    words_out.bytes(words.data(), words.size_bytes());
  }

  std::vector<std::uint8_t> progress_section;
  if (progress != nullptr) {
    codec::ByteWriter progress_out(progress_section);
    progress_out.u32(kProgressVersion);
    progress_out.u32(progress->bundle_complete ? 1u : 0u);
    progress_out.u64(progress->samples_consumed);
    progress_out.u64(progress->shard_count);
    progress_out.u64(progress->shard_index);
  }

  const std::uint32_t count = progress != nullptr ? 4 : 3;
  const std::size_t header_bytes = kHeaderFixedBytes + count * kSectionEntryBytes;
  const std::size_t config_offset = align_up(header_bytes);
  const std::size_t counters_offset = align_up(config_offset + config_section.size());
  const std::size_t words_offset = align_up(counters_offset + counters_section.size());
  const std::size_t progress_offset = align_up(words_offset + words_section.size());

  std::vector<std::uint8_t> artifact;
  artifact.reserve(progress_offset + progress_section.size());
  codec::ByteWriter out(artifact);
  out.bytes(kBinaryMagic, sizeof(kBinaryMagic));
  out.u32(kBinaryVersion);
  out.u32(count);
  const auto table_entry = [&out](std::uint32_t id, std::size_t offset,
                                  const std::vector<std::uint8_t>& section) {
    out.u32(id);
    out.u32(0);  // reserved.
    out.u64(offset);
    out.u64(section.size());
    out.u64(hdc::fnv1a(section));
  };
  table_entry(kSectionConfig, config_offset, config_section);
  table_entry(kSectionCounters, counters_offset, counters_section);
  table_entry(kSectionWords, words_offset, words_section);
  if (progress != nullptr) {
    table_entry(kSectionProgress, progress_offset, progress_section);
  }
  // Zero padding between sections keeps every offset 8-byte aligned so an
  // mmap'd file can be addressed as int32/u64 arrays in place.
  const auto append_at = [&artifact, &out](std::size_t offset,
                                           const std::vector<std::uint8_t>& section) {
    artifact.resize(offset, 0);
    out.bytes(section.data(), section.size());
  };
  append_at(config_offset, config_section);
  append_at(counters_offset, counters_section);
  append_at(words_offset, words_section);
  if (progress != nullptr) {
    append_at(progress_offset, progress_section);
  }
  return artifact;
}

void verify_checksum(const unsigned char* data, const SectionEntry& entry, const char* name) {
  require(hdc::fnv1a({data + entry.offset, entry.length}) == entry.checksum,
          std::string(name) + " section checksum mismatch");
}

void check_payload_lengths(const BinaryTable& table, const ParsedConfig& parsed) {
  require(table.counters->length == parsed.slots * parsed.config.dimension * 4,
          "counters section length does not match class layout");
  require(table.words->length == parsed.slots * parsed.words_per_slot * 8,
          "packed-words section length does not match class layout");
}

/// Full-read load: verifies every checksum and copies the payload into
/// snapshot-owned buffers.
[[nodiscard]] std::shared_ptr<const InferenceSnapshot> snapshot_from_binary(
    const unsigned char* data, std::size_t size) {
  const BinaryTable table = parse_binary_table(data, size);
  verify_checksum(data, *table.config, "config");
  verify_checksum(data, *table.counters, "counters");
  verify_checksum(data, *table.words, "packed-words");
  ParsedConfig parsed = parse_config_section(data + table.config->offset, table.config->length);
  check_payload_lengths(table, parsed);

  std::vector<std::int32_t> counters(parsed.slots * parsed.config.dimension);
  std::vector<std::uint64_t> words(parsed.slots * parsed.words_per_slot);
  std::memcpy(counters.data(), data + table.counters->offset, table.counters->length);
  std::memcpy(words.data(), data + table.words->offset, table.words->length);
  try {
    return std::make_shared<const InferenceSnapshot>(
        parsed.config, parsed.num_classes, parsed.fitted, std::move(parsed.cursors),
        std::move(parsed.slot_meta), std::move(counters), std::move(words));
  } catch (const std::exception& error) {
    throw std::runtime_error(std::string("load_model: invalid artifact state: ") + error.what());
  }
}

/// RAII read-only memory mapping; held by borrowing snapshots via a
/// shared_ptr so the mapping outlives every view into it.
class MappedFile {
 public:
  explicit MappedFile(const std::filesystem::path& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw std::runtime_error("load_snapshot: cannot open " + path.string());
    }
    struct ::stat info {};
    if (::fstat(fd, &info) != 0 || info.st_size <= 0) {
      ::close(fd);
      throw std::runtime_error("load_snapshot: cannot stat " + path.string());
    }
    size_ = static_cast<std::size_t>(info.st_size);
    void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) {
      throw std::runtime_error("load_snapshot: mmap failed for " + path.string());
    }
    data_ = static_cast<const unsigned char*>(addr);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
  }
  [[nodiscard]] const unsigned char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Zero-copy load: header and config are validated (config checksum
/// included — it is a few hundred bytes), but the bulk counter/word
/// sections are *borrowed* from the mapping without being touched, so the
/// first query faults in only the pages it actually reads.
[[nodiscard]] std::shared_ptr<const InferenceSnapshot> snapshot_from_mmap(
    const std::filesystem::path& path) {
  auto mapped = std::make_shared<MappedFile>(path);
  const unsigned char* data = mapped->data();
  const BinaryTable table = parse_binary_table(data, mapped->size());
  verify_checksum(data, *table.config, "config");
  ParsedConfig parsed = parse_config_section(data + table.config->offset, table.config->length);
  check_payload_lengths(table, parsed);

  const auto* counters = reinterpret_cast<const std::int32_t*>(data + table.counters->offset);
  const auto* words = reinterpret_cast<const std::uint64_t*>(data + table.words->offset);
  try {
    return std::make_shared<const InferenceSnapshot>(
        parsed.config, parsed.num_classes, parsed.fitted, std::move(parsed.cursors),
        std::move(parsed.slot_meta), counters, words,
        std::shared_ptr<const void>(mapped, mapped->data()));
  } catch (const std::exception& error) {
    throw std::runtime_error(std::string("load_model: invalid artifact state: ") + error.what());
  }
}

[[nodiscard]] std::string read_file_bytes(const std::filesystem::path& path, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path.string());
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

[[nodiscard]] const unsigned char* as_bytes(const std::string& blob) noexcept {
  return reinterpret_cast<const unsigned char*>(blob.data());
}

[[nodiscard]] ModelArtifactInfo inspect_binary(const std::string& blob) {
  const BinaryTable table = parse_binary_table(as_bytes(blob), blob.size());
  ModelArtifactInfo info;
  info.version = 3;
  info.file_bytes = blob.size();
  info.checksums_ok = true;
  for (const SectionEntry& entry : table.sections) {
    SectionInfo section;
    section.id = entry.id;
    switch (entry.id) {
      case kSectionConfig: section.name = "config"; break;
      case kSectionCounters: section.name = "counters"; break;
      case kSectionWords: section.name = "packed-words"; break;
      case kSectionProgress: section.name = "progress"; break;
      default: section.name = "unknown"; break;
    }
    section.offset = entry.offset;
    section.length = entry.length;
    section.checksum_ok =
        hdc::fnv1a({as_bytes(blob) + entry.offset, entry.length}) == entry.checksum;
    info.checksums_ok = info.checksums_ok && section.checksum_ok;
    info.sections.push_back(std::move(section));
  }
  // Header fields need only the config section to be intact, so model-info
  // still identifies an artifact whose payload sections are corrupt.
  const bool config_ok =
      hdc::fnv1a({as_bytes(blob) + table.config->offset, table.config->length}) ==
      table.config->checksum;
  if (config_ok) {
    const ParsedConfig parsed =
        parse_config_section(as_bytes(blob) + table.config->offset, table.config->length);
    info.backend = parsed.config.backend;
    info.dimension = parsed.config.dimension;
    info.num_classes = parsed.num_classes;
    info.vectors_per_class = parsed.config.vectors_per_class;
    info.quantized = parsed.config.quantized_model;
    info.fitted = parsed.fitted;
  }
  return info;
}

[[nodiscard]] ModelArtifactInfo inspect_text(const std::string& blob) {
  std::istringstream in(blob);
  const TextHeader header = parse_text_header(in);
  ModelArtifactInfo info;
  info.version = header.version;
  info.backend = header.config.backend;
  info.dimension = header.config.dimension;
  info.num_classes = header.num_classes;
  info.vectors_per_class = header.config.vectors_per_class;
  info.quantized = header.config.quantized_model;
  info.fitted = header.fitted;
  info.file_bytes = blob.size();
  return info;
}

}  // namespace

// ======================= public API =======================

void save_model_text(const GraphHdModel& model, std::ostream& out) {
  const GraphHdConfig& config = model.config();
  out << kTextMagic << ' ' << kTextVersion << '\n';
  out << "backend " << static_cast<int>(config.backend) << '\n';
  out << "dimension " << config.dimension << '\n';
  out << "pagerank_iterations " << config.pagerank_iterations << '\n';
  out << "pagerank_damping " << config.pagerank_damping << '\n';
  out << "identifier " << static_cast<int>(config.identifier) << '\n';
  out << "metric " << static_cast<int>(config.metric) << '\n';
  out << "quantized " << (config.quantized_model ? 1 : 0) << '\n';
  out << "bitslice " << (config.use_bitslice_bundling ? 1 : 0) << '\n';
  out << "retrain_epochs " << config.retrain_epochs << '\n';
  out << "vectors_per_class " << config.vectors_per_class << '\n';
  out << "use_vertex_labels " << (config.use_vertex_labels ? 1 : 0) << '\n';
  out << "neighborhood_rounds " << config.neighborhood_rounds << '\n';
  out << "seed " << config.seed << '\n';
  out << "num_classes " << model.num_classes() << '\n';
  out << "fitted " << (model.fitted() ? 1 : 0) << '\n';

  out << "cursors";
  for (const std::size_t cursor : model.replica_cursors()) out << ' ' << cursor;
  out << '\n';

  // The slot state is the class memory's signed counters under either
  // backend tag, so the tag line alone tells the two files apart.
  const hdc::AssociativeMemory& memory = model.memory();
  for (std::size_t slot = 0; slot < memory.num_classes(); ++slot) {
    const hdc::BundleAccumulator& acc = memory.accumulator(slot);
    out << "slot " << slot << ' ' << memory.class_count(slot) << ' ' << acc.count() << ' '
        << (acc.tie_free() ? 1 : 0) << '\n';
    const auto counts = acc.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out << counts[i] << (i + 1 == counts.size() ? '\n' : ' ');
    }
    if (counts.empty()) out << '\n';
  }
  if (!out) {
    throw std::runtime_error("save_model: stream failure while writing");
  }
}

void save_model_text(const GraphHdModel& model, const std::filesystem::path& path) {
  atomic_write_file(path, [&model](std::ostream& out) { save_model_text(model, out); });
}

void save_snapshot(const InferenceSnapshot& snapshot, std::ostream& out) {
  const std::vector<std::uint8_t> artifact = build_v3_artifact(snapshot);
  out.write(reinterpret_cast<const char*>(artifact.data()),
            static_cast<std::streamsize>(artifact.size()));
  if (!out) {
    throw std::runtime_error("save_model: stream failure while writing");
  }
}

void save_snapshot(const InferenceSnapshot& snapshot, const std::filesystem::path& path) {
  atomic_write_file(path,
                    [&snapshot](std::ostream& out) { save_snapshot(snapshot, out); });
}

void save_model(const GraphHdModel& model, std::ostream& out) {
  save_snapshot(*model.snapshot(), out);
}

void save_model(const GraphHdModel& model, const std::filesystem::path& path) {
  atomic_write_file(path, [&model](std::ostream& out) { save_model(model, out); });
}

void save_checkpoint(const GraphHdModel& model, const CheckpointProgress& progress,
                     const std::filesystem::path& path) {
  if (progress.shard_count == 0 || progress.shard_index >= progress.shard_count) {
    throw std::invalid_argument(
        "save_checkpoint: progress shard topology {" + std::to_string(progress.shard_count) +
        ", " + std::to_string(progress.shard_index) + "} is invalid");
  }
  const auto snapshot = model.snapshot();
  atomic_write_file(path, [&snapshot, &progress](std::ostream& out) {
    const std::vector<std::uint8_t> artifact = build_v3_artifact(*snapshot, &progress);
    out.write(reinterpret_cast<const char*>(artifact.data()),
              static_cast<std::streamsize>(artifact.size()));
    if (!out) {
      throw std::runtime_error("save_checkpoint: stream failure while writing");
    }
  });
}

ResumedCheckpoint resume_checkpoint(const std::filesystem::path& path) {
  const std::string blob = read_file_bytes(path, "resume_checkpoint");
  const BinaryTable table = parse_binary_table(as_bytes(blob), blob.size());
  if (table.progress == nullptr) {
    throw std::runtime_error("resume_checkpoint: " + path.string() +
                             " has no progress section (a model artifact, not a checkpoint)");
  }
  verify_checksum(as_bytes(blob), *table.progress, "progress");
  const CheckpointProgress progress =
      parse_progress_section(as_bytes(blob) + table.progress->offset, table.progress->length);
  // snapshot_from_binary verifies the config/counters/words checksums, so a
  // truncated or bit-flipped checkpoint fails loudly here.
  const auto snapshot = snapshot_from_binary(as_bytes(blob), blob.size());
  return ResumedCheckpoint{model_from_snapshot(*snapshot), progress};
}

MergedCheckpoints merge_checkpoint_files(const std::vector<std::filesystem::path>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("merge_checkpoint_files: no checkpoint files given");
  }
  const std::uint64_t shard_count = inputs.size();
  // Load everything up front, then merge in *shard-index* order (not input
  // order) so the result matches a one-process sharded fit byte for byte.
  std::vector<std::optional<ResumedCheckpoint>> by_index(inputs.size());
  for (const std::filesystem::path& path : inputs) {
    ResumedCheckpoint loaded = resume_checkpoint(path);
    const CheckpointProgress& progress = loaded.progress;
    if (progress.shard_count == 0) {
      throw std::runtime_error("merge_checkpoint_files: " + path.string() +
                               " predates shard-topology progress (v1) — its shard "
                               "assignment is unknown and cannot be merged safely");
    }
    if (!progress.bundle_complete) {
      throw std::runtime_error("merge_checkpoint_files: " + path.string() +
                               " is a mid-bundling checkpoint (shard " +
                               std::to_string(progress.shard_index) +
                               " incomplete) — finish or resume that shard first");
    }
    if (progress.shard_count != shard_count) {
      throw std::runtime_error(
          "merge_checkpoint_files: " + path.string() + " was written for " +
          std::to_string(progress.shard_count) + " shards but " +
          std::to_string(shard_count) + " checkpoint files were given");
    }
    std::optional<ResumedCheckpoint>& slot = by_index[progress.shard_index];
    if (slot.has_value()) {
      throw std::runtime_error("merge_checkpoint_files: duplicate checkpoint for shard " +
                               std::to_string(progress.shard_index) + " (" + path.string() +
                               ")");
    }
    slot = std::move(loaded);
  }
  // Every index occupied exactly once: with shard_count == inputs.size() and
  // no duplicates, a full by_index *is* the 0..W-1 cover.
  for (std::size_t shard = 0; shard < by_index.size(); ++shard) {
    if (!by_index[shard].has_value()) {
      throw std::runtime_error("merge_checkpoint_files: no checkpoint covers shard " +
                               std::to_string(shard));
    }
  }
  const GraphHdModel& first = by_index.front()->model;
  MergedCheckpoints merged{GraphHdModel(first.config(), first.num_classes()),
                           CheckpointProgress{0, true, 1, 0}};
  for (std::size_t shard = 0; shard < by_index.size(); ++shard) {
    ResumedCheckpoint& shard_checkpoint = *by_index[shard];
    if (!(shard_checkpoint.model.config() == first.config()) ||
        shard_checkpoint.model.num_classes() != first.num_classes()) {
      throw std::runtime_error("merge_checkpoint_files: shard " + std::to_string(shard) +
                               " was written by a model with a different configuration");
    }
    merged.progress.samples_consumed += shard_checkpoint.progress.samples_consumed;
    merged.model.merge(std::move(shard_checkpoint.model));
  }
  return merged;
}

GraphHdModel load_model(std::istream& in) {
  // Sniff the magic: one entry point accepts every artifact version.  The
  // whole stream is buffered first — both branches need random access (the
  // binary branch to follow the section table, the text branch is line
  // oriented anyway and models are small relative to memory).
  const std::string blob{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  if (looks_binary(as_bytes(blob), blob.size())) {
    const auto snapshot = snapshot_from_binary(as_bytes(blob), blob.size());
    return model_from_snapshot(*snapshot);
  }
  std::istringstream text(blob);
  return load_model_text(text);
}

GraphHdModel load_model(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_model: cannot open " + path.string());
  }
  return load_model(in);
}

std::shared_ptr<const InferenceSnapshot> load_snapshot(const std::filesystem::path& path,
                                                       SnapshotLoad mode) {
  // Sniff just the magic before deciding how to materialize the rest.
  bool binary = false;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("load_snapshot: cannot open " + path.string());
    }
    char magic[sizeof(kBinaryMagic)] = {};
    in.read(magic, sizeof(magic));
    binary = in.gcount() == sizeof(magic) &&
             looks_binary(reinterpret_cast<const unsigned char*>(magic), sizeof(magic));
  }
  if (!binary) {
    // Text artifacts have no zero-copy representation: parse the model and
    // take its snapshot (also the migration path for v1/v2 files).
    return load_model(path).snapshot();
  }
  if (mode == SnapshotLoad::kMmap) {
    return snapshot_from_mmap(path);
  }
  const std::string blob = read_file_bytes(path, "load_snapshot");
  return snapshot_from_binary(as_bytes(blob), blob.size());
}

ModelArtifactInfo inspect_model(const std::filesystem::path& path) {
  const std::string blob = read_file_bytes(path, "inspect_model");
  if (looks_binary(as_bytes(blob), blob.size())) {
    return inspect_binary(blob);
  }
  return inspect_text(blob);
}

void atomic_write_file(const std::filesystem::path& path,
                       const std::function<void(std::ostream&)>& write) {
  // Unique temp name in the destination directory: rename() is only atomic
  // within a filesystem, and pid + counter keeps concurrent writers (or a
  // crashed predecessor's leftovers) from colliding.
  static std::atomic<unsigned long> sequence{0};
  const auto pid = static_cast<unsigned long>(::getpid());
  std::filesystem::path tmp = path;
  tmp += ".tmp" + std::to_string(pid) + "." +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));

  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_model: cannot open " + tmp.string());
  }
  try {
    write(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("save_model: stream failure while writing " + tmp.string());
    }
    out.close();
    if (out.fail()) {
      throw std::runtime_error("save_model: close failure for " + tmp.string());
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    out.close();
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace graphhd::core
