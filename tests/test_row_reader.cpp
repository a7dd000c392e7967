/// The TUDataset row reader (data::text_io::RowReader) against a line-based
/// reference (tests/support/tu_reference.hpp: getline + trim + from_chars).
///
/// Every file is written with every row form the grammar allows — comma,
/// comma-space, space and tab separators, CRLF endings, '#' comments, blank
/// lines, negative values, no final newline — and is larger than the
/// reader's buffer, so rows straddle the buffer boundary at many offsets.
/// Values and line numbers must match the reference row for row, and a
/// malformed row must fail in both, naming the same `file:line`.  The same
/// holds one level up, through load_tudataset and TUDatasetStream.

#include "data/text_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "data/stream.hpp"
#include "data/tudataset.hpp"
#include "support/proptest.hpp"
#include "support/tu_reference.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for RowReaderTest.DrainingAllocatesNothing.  Sanitizer
// runtimes bring their own operator new (and check that allocation and
// release pair up), so the counting replacement is left out there.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GRAPHHD_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GRAPHHD_COUNTS_ALLOCATIONS 0
#endif
#endif
#ifndef GRAPHHD_COUNTS_ALLOCATIONS
#define GRAPHHD_COUNTS_ALLOCATIONS 1
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

#if GRAPHHD_COUNTS_ALLOCATIONS
// The library's array, nothrow and sized forms forward to these two.  gcc
// takes the free() below for a mismatched release of what operator new
// returned, though this operator new returns malloc's memory.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace {

namespace fs = std::filesystem;
using namespace graphhd;
namespace proptest = graphhd::proptest;
using data::text_io::RowReader;
using testsupport::ReferenceRow;

[[nodiscard]] fs::path temp_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("graphhd_rows_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// "<file>:<line>" of an error message that starts with `file`, or "" when
/// the message does not name the file.
[[nodiscard]] std::string where(const std::string& message, const fs::path& file) {
  const std::string prefix = file.string() + ":";
  if (message.rfind(prefix, 0) != 0) return "";
  const auto end = message.find(':', prefix.size());
  return message.substr(0, end);
}

// ---------------------------------------------------------------------------
// Row formatting: every form the grammar allows.
// ---------------------------------------------------------------------------

template <std::size_t N>
[[nodiscard]] const char* pick(hdc::Rng& rng, const char* const (&options)[N]) {
  return options[rng.next_below(N)];
}

[[nodiscard]] std::string format_value(long long value, hdc::Rng& rng) {
  if (value == 0 && rng.next_below(8) == 0) return "-0";
  if (value >= 0 && value < 1000 && rng.next_below(8) == 0) return "00" + std::to_string(value);
  return std::to_string(value);
}

/// One row holding `values`, with random padding, separators, comment and
/// line ending.  `last` rows may omit the final newline.
[[nodiscard]] std::string format_row(std::span<const long long> values, hdc::Rng& rng, bool last) {
  static constexpr const char* kLead[] = {"", "", " ", "\t", " \t", "\r"};
  static constexpr const char* kTrail[] = {"", "", "", " ", "\t", ",", " ,"};
  static constexpr const char* kComment[] = {"", "", " # note", "#x", "\t#, 1 2"};
  std::string row = pick(rng, kLead);
  if (rng.next_below(10) == 0) row += ",";
  for (std::size_t i = 0; i < values.size(); ++i) {
    // A run of one to three separators: ", ", ",", " ", "\t", ",,", " , " ...
    for (std::size_t k = 0; i > 0 && (k == 0 || (k < 3 && rng.next_bool())); ++k) {
      row += " \t,"[rng.next_below(3)];
    }
    row += format_value(values[i], rng);
  }
  row += pick(rng, kTrail);
  row += pick(rng, kComment);
  if (rng.next_below(3) == 0) row += "\r";
  if (!last || rng.next_bool()) row += "\n";
  return row;
}

/// A line the reader must skip.
[[nodiscard]] std::string blank_row(hdc::Rng& rng) {
  static constexpr const char* kBlank[] = {"\n", "\r\n", " \n", "\t\r\n", " # 1, 2\n", "#\n"};
  return pick(rng, kBlank);
}

/// Rows at the edges of the grammar; most are malformed for their arity, and
/// a few ("1-2" for two values, a '\r' inside a comment) are not.
[[nodiscard]] std::string tricky_row(std::size_t arity, hdc::Rng& rng) {
  static constexpr const char* kBadToken[] = {"1, x", "x", "--3", "+4", "1e5", "-", "1.5"};
  static constexpr const char* kBadShape[] = {"5\r6", ",", "1,\r,2", "0x10", "\x01", "1 2 3"};
  std::string row = rng.next_bool() ? pick(rng, kBadToken) : pick(rng, kBadShape);
  if (rng.next_below(8) == 0) row = "99999999999999999999";
  if (arity == 1 && rng.next_bool()) row = rng.next_bool() ? "1 2" : "1-2";
  if (arity == 2 && rng.next_bool()) row = rng.next_bool() ? "7" : "1 2 # 3\r 4";
  return row + "\n";
}

// ---------------------------------------------------------------------------
// Reader-level parity.
// ---------------------------------------------------------------------------

struct TextCase {
  std::size_t arity = 1;
  std::string content;
};

std::ostream& operator<<(std::ostream& out, const TextCase& c) {
  return out << "arity " << c.arity << ", " << c.content.size() << " bytes";
}

[[nodiscard]] TextCase generate_text(hdc::Rng& rng, std::size_t) {
  constexpr std::size_t kBuffer = RowReader::kCapacity;
  TextCase c;
  c.arity = 1 + rng.next_below(2);
  const std::size_t target = kBuffer * (2 + rng.next_below(2)) + rng.next_below(kBuffer);
  const bool inject_tricky = rng.next_below(3) == 0;
  while (c.content.size() < target) {
    if (rng.next_below(6) == 0) {
      c.content += blank_row(rng);
      continue;
    }
    std::array<long long, 2> values{};
    for (std::size_t i = 0; i < c.arity; ++i) {
      const std::uint64_t kind = rng.next_below(8);
      values[i] = kind == 0 ? LLONG_MIN : kind == 1 ? LLONG_MAX : rng.next_int(-100000, 100000);
    }
    c.content += format_row({values.data(), c.arity}, rng, false);
  }
  if (inject_tricky) {
    // Replace one line in the middle third, so it sits past a refill.
    std::size_t at = c.content.find('\n', target / 3 + rng.next_below(target / 3 + 1));
    if (at != std::string::npos) {
      const std::size_t end = c.content.find('\n', at + 1);
      c.content.replace(at + 1, end == std::string::npos ? std::string::npos : end - at,
                        tricky_row(c.arity, rng));
    }
  }
  std::array<long long, 2> last{};
  c.content += format_row({last.data(), c.arity}, rng, true);
  return c;
}

[[nodiscard]] std::vector<TextCase> shrink_text(const TextCase& c) {
  std::vector<TextCase> out;
  // Keep the first half of the lines.
  const auto cut = c.content.find('\n', c.content.size() / 2);
  if (cut != std::string::npos && cut + 1 < c.content.size()) {
    TextCase shorter = c;
    shorter.content.resize(cut + 1);
    out.push_back(std::move(shorter));
  }
  return out;
}

/// What the reader should produce: the reference's rows and error.
struct Expected {
  std::vector<ReferenceRow> rows;
  std::string error_at;  ///< "<file>:<line>" or "" when the file reads cleanly.
};

[[nodiscard]] Expected expected_reading(const fs::path& file, std::size_t arity) {
  auto reference = testsupport::reference_read(file, arity);
  return Expected{std::move(reference.rows), where(reference.error, file)};
}

TEST(RowReaderTest, MatchesTheLineBasedReference) {
  const fs::path dir = temp_dir("parity");
  const fs::path file = dir / "rows.txt";
  proptest::check<TextCase>(
      "RowReader matches getline + trim + from_chars", generate_text, shrink_text,
      [&](const TextCase& c, std::ostream& diag) {
        diag << c;
        write_file(file, c.content);
        const Expected expected = expected_reading(file, c.arity);
        std::vector<ReferenceRow> actual;
        std::string error_at;
        try {
          RowReader reader(file);
          std::array<long long, 2> slots{};
          while (reader.next({slots.data(), c.arity})) {
            actual.push_back({reader.line(), {slots.begin(), slots.begin() + c.arity}});
          }
        } catch (const std::runtime_error& error) {
          error_at = where(error.what(), file);
          diag << " [reader error: " << error.what() << "]";
        }
        diag << " [expected " << expected.rows.size() << " rows, error at '"
             << expected.error_at << "'; read " << actual.size() << " rows, error at '"
             << error_at << "']";
        return actual == expected.rows && error_at == expected.error_at;
      },
      proptest::Config{.cases = 48});
  fs::remove_all(dir);
}

TEST(RowReaderTest, AcceptsEveryRowForm) {
  const fs::path dir = temp_dir("forms");
  const fs::path file = dir / "rows.txt";
  write_file(file,
             "# header\n\n1, 2\n3,4\r\n 5\t6 \n,7 ,, 8,\n\t\r\n-9 -10 # tail, 11\n12-13\r\n"
             "-0, 007\n14 15");
  RowReader reader(file);
  std::array<long long, 2> row{};
  std::vector<std::size_t> lines;
  std::vector<long long> values;
  while (reader.next(row)) {
    lines.push_back(reader.line());
    values.insert(values.end(), row.begin(), row.end());
  }
  const std::vector<long long> expected = {1, 2, 3, 4, 5, 6, 7, 8, -9, -10, 12, -13, 0, 7, 14, 15};
  EXPECT_EQ(values, expected);
  EXPECT_EQ(lines, (std::vector<std::size_t>{3, 4, 5, 6, 8, 9, 10, 11}));
  fs::remove_all(dir);
}

TEST(RowReaderTest, RejectsMalformedRowsWithFileAndLine) {
  const fs::path dir = temp_dir("malformed");
  const fs::path file = dir / "rows.txt";
  std::vector<std::pair<std::size_t, std::string>> cases;
  for (const char* bad : {"1, x", "--3", "+4", "1e5", "5\r6", ","}) cases.emplace_back(2, bad);
  for (const char* bad : {"7", "1 2 3", "1,\r,2"}) cases.emplace_back(2, bad);
  cases.emplace_back(2, "99999999999999999999");
  for (const char* bad : {"5\r6", "1 2", "1-2", ",", "0x10"}) cases.emplace_back(1, bad);
  // Right after a row, and after a blank line: both ways of reaching a row.
  for (const std::string before : {"1, 2\n", "1, 2\n\n"}) {
    const std::string line = std::to_string(std::count(before.begin(), before.end(), '\n') + 1);
    for (const auto& [arity, bad] : cases) {
      write_file(file, before + bad + "\n3, 4\n");
      RowReader reader(file);
      std::array<long long, 2> row{};
      EXPECT_TRUE(reader.next({row.data(), 2}));
      try {
        (void)reader.next({row.data(), arity});
        ADD_FAILURE() << "accepted '" << bad << "' as " << arity << " value(s)";
      } catch (const std::runtime_error& error) {
        EXPECT_EQ(where(error.what(), file), file.string() + ":" + line) << error.what();
      }
    }
  }
  fs::remove_all(dir);
}

TEST(RowReaderTest, RowLongerThanTheBufferFailsWithFileAndLine) {
  const fs::path dir = temp_dir("long");
  const std::string long_comment(RowReader::kCapacity + 10, '#');
  // Straight through the reader.
  write_file(dir / "rows.txt", "1\n" + long_comment + "\n2\n");
  {
    RowReader reader(dir / "rows.txt");
    long long value = 0;
    EXPECT_TRUE(reader.next({&value, 1}));
    try {
      (void)reader.next({&value, 1});
      ADD_FAILURE() << "a row longer than the buffer was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(where(error.what(), dir / "rows.txt"), (dir / "rows.txt").string() + ":2");
    }
  }
  // And through the loader, which names the same place.
  write_file(dir / "DS_A.txt", "1, 2\n2, 1\n");
  write_file(dir / "DS_graph_indicator.txt", "1\n" + long_comment + "\n1\n");
  write_file(dir / "DS_graph_labels.txt", "0\n");
  try {
    (void)data::load_tudataset(dir, "DS");
    ADD_FAILURE() << "load_tudataset accepted a row longer than the buffer";
  } catch (const std::runtime_error& error) {
    const fs::path indicator = dir / "DS_graph_indicator.txt";
    EXPECT_EQ(where(error.what(), indicator), indicator.string() + ":2") << error.what();
  }
  // The last row fits only up to the buffer size minus one byte.
  write_file(dir / "rows.txt", std::string(RowReader::kCapacity - 1, ' '));
  {
    RowReader reader(dir / "rows.txt");
    long long value = 0;
    EXPECT_FALSE(reader.next({&value, 1}));
  }
  write_file(dir / "rows.txt", std::string(RowReader::kCapacity, ' '));
  {
    RowReader reader(dir / "rows.txt");
    long long value = 0;
    EXPECT_THROW((void)reader.next({&value, 1}), std::runtime_error);
  }
  fs::remove_all(dir);
}

TEST(RowReaderTest, DrainingAllocatesNothing) {
  if (!GRAPHHD_COUNTS_ALLOCATIONS) GTEST_SKIP() << "the sanitizer runtime owns operator new";
  const fs::path dir = temp_dir("alloc");
  std::string content;
  for (int i = 0; i < 20000; ++i) content += std::to_string(i) + ", " + std::to_string(-i) + "\n";
  write_file(dir / "rows.txt", content);
  RowReader reader(dir / "rows.txt");
  std::array<long long, 2> row{};
  std::size_t rows = 0;
  const std::size_t before = g_allocations.load();
  while (reader.next(row)) ++rows;
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(rows, 20000u);
  EXPECT_EQ(allocations, 0u) << "the reader allocated while draining " << rows << " rows";
  fs::remove_all(dir);
}

TEST(RowReaderTest, MissingFileThrows) {
  EXPECT_THROW(RowReader(fs::temp_directory_path() / "graphhd_rows_no_such_file.txt"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Directory-level parity: load_tudataset and TUDatasetStream over formatted
// TU directories.
// ---------------------------------------------------------------------------

struct DirectoryCase {
  std::vector<graph::Graph> graphs;
  std::vector<long long> raw_labels;
  std::vector<std::vector<long long>> raw_node_labels;
  std::uint64_t format_seed = 0;
  /// Malformed-row injection: file index (0..3) and non-blank row index, or
  /// nothing for a well-formed directory.
  std::optional<std::pair<std::size_t, std::size_t>> malformed;
};

std::ostream& operator<<(std::ostream& out, const DirectoryCase& c) {
  out << c.graphs.size() << " graphs, format seed " << c.format_seed;
  if (c.malformed) out << ", bad row " << c.malformed->second << " of file " << c.malformed->first;
  return out;
}

constexpr const char* kFiles[] = {"graph_indicator", "graph_labels", "A", "node_labels"};
constexpr std::size_t kArity[] = {1, 1, 2, 1};

/// File `f` (an index into kFiles) of the directory's dataset "DS".
[[nodiscard]] fs::path tu_file(const fs::path& dir, std::size_t f) {
  return dir / ("DS_" + std::string(kFiles[f]) + ".txt");
}

[[nodiscard]] DirectoryCase generate_directory(hdc::Rng& rng, std::size_t) {
  DirectoryCase c;
  const std::size_t num_graphs = 30 + rng.next_below(50);
  static constexpr std::array<long long, 5> kLabels = {-3, -1, 0, 2, 7};
  for (std::size_t g = 0; g < num_graphs; ++g) {
    const std::size_t n = 1 + rng.next_below(60);
    graph::GraphBuilder builder(n);
    for (std::size_t e = 0; n > 1 && e < 2 * n; ++e) {
      (void)builder.add_edge(static_cast<graph::VertexId>(rng.next_below(n)),
                             static_cast<graph::VertexId>(rng.next_below(n)));
    }
    c.graphs.push_back(builder.build());
    c.raw_labels.push_back(kLabels[rng.next_below(kLabels.size())]);
    std::vector<long long> node_labels(n);
    for (auto& label : node_labels) label = rng.next_int(-5, 5);
    c.raw_node_labels.push_back(std::move(node_labels));
  }
  c.format_seed = rng();
  if (rng.next_bool()) c.malformed = std::make_pair(rng.next_below(4), rng.next_below(1u << 20));
  return c;
}

/// Writes the case's directory; returns the "<file>:<line>" of the injected
/// malformed row ("" for none).
std::string write_directory(const DirectoryCase& c, const fs::path& dir) {
  hdc::Rng rng(c.format_seed);
  std::array<std::string, 4> files;
  std::array<std::vector<std::size_t>, 4> row_offsets;  // byte offset of each non-blank row.
  const auto add = [&](std::size_t f, std::span<const long long> values, bool last) {
    if (rng.next_below(8) == 0) files[f] += blank_row(rng);
    row_offsets[f].push_back(files[f].size());
    files[f] += format_row(values, rng, last);
  };
  std::size_t base = 0;
  for (std::size_t g = 0; g < c.graphs.size(); ++g) {
    const bool last_graph = g + 1 == c.graphs.size();
    const auto& graph = c.graphs[g];
    for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
      const long long id = static_cast<long long>(g) + 1;
      add(0, {&id, 1}, last_graph && v + 1 == graph.num_vertices());
      add(3, {&c.raw_node_labels[g][v], 1}, last_graph && v + 1 == graph.num_vertices());
    }
    add(1, {&c.raw_labels[g], 1}, last_graph);
    const auto edges = graph.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto u = static_cast<long long>(base + edges[e].u + 1);
      const auto v = static_cast<long long>(base + edges[e].v + 1);
      const std::array<long long, 2> forward = {u, v};
      const std::array<long long, 2> backward = {v, u};
      const bool last_edge = last_graph && e + 1 == edges.size();
      add(2, forward, false);
      add(2, backward, last_edge);
    }
    base += graph.num_vertices();
  }
  std::string malformed_at;
  if (c.malformed && !row_offsets[c.malformed->first].empty()) {
    const std::size_t f = c.malformed->first;
    const std::size_t offset = row_offsets[f][c.malformed->second % row_offsets[f].size()];
    const std::size_t end = files[f].find('\n', offset);
    // One malformed token or one value too many, by arity.
    const char* bad = kArity[f] == 1 ? (offset % 2 == 0 ? "1, x" : "4 5") : "1 2 3";
    files[f].replace(offset, end == std::string::npos ? std::string::npos : end - offset, bad);
    const auto newlines = std::count(files[f].begin(), files[f].begin() + offset, '\n');
    const std::size_t line = 1 + static_cast<std::size_t>(newlines);
    malformed_at = tu_file(dir, f).string() + ":" + std::to_string(line);
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    write_file(tu_file(dir, f), files[f]);
  }
  return malformed_at;
}

[[nodiscard]] data::GraphDataset expected_dataset(const DirectoryCase& c) {
  std::map<long long, std::size_t> graph_ids;
  std::map<long long, std::size_t> node_ids;
  for (const long long l : c.raw_labels) graph_ids.emplace(l, 0);
  for (const auto& labels : c.raw_node_labels) {
    for (const long long l : labels) node_ids.emplace(l, 0);
  }
  std::size_t next = 0;
  for (auto& [raw, dense] : graph_ids) dense = next++;
  next = 0;
  for (auto& [raw, dense] : node_ids) dense = next++;
  std::vector<std::size_t> labels;
  std::vector<std::vector<std::size_t>> vertex_labels;
  for (std::size_t g = 0; g < c.graphs.size(); ++g) {
    labels.push_back(graph_ids.at(c.raw_labels[g]));
    vertex_labels.emplace_back();
    for (const long long l : c.raw_node_labels[g]) vertex_labels.back().push_back(node_ids.at(l));
  }
  data::GraphDataset dataset("DS", c.graphs, std::move(labels));
  dataset.set_vertex_labels(std::move(vertex_labels));
  return dataset;
}

[[nodiscard]] bool same_dataset(const data::GraphDataset& a, const data::GraphDataset& b,
                                std::ostream& diag) {
  if (a.size() != b.size() || a.num_classes() != b.num_classes() ||
      a.has_vertex_labels() != b.has_vertex_labels()) {
    diag << " [shape differs: " << a.size() << " vs " << b.size() << " graphs]";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.graph(i) != b.graph(i) || a.label(i) != b.label(i) ||
        (a.has_vertex_labels() && a.vertex_labels()[i] != b.vertex_labels()[i])) {
      diag << " [graph " << i << " differs]";
      return false;
    }
  }
  return true;
}

TEST(RowReaderTest, LoadersReadFormattedDirectoriesLikeTheReference) {
  const fs::path dir = temp_dir("directory");
  proptest::check<DirectoryCase>(
      "formatted TU directories load exactly, and bad rows fail at the same file:line",
      generate_directory, [](const DirectoryCase&) { return std::vector<DirectoryCase>{}; },
      [&](const DirectoryCase& c, std::ostream& diag) {
        diag << c;
        const std::string malformed_at = write_directory(c, dir);
        bool ok = true;
        if (malformed_at.empty()) {
          const auto expected = expected_dataset(c);
          ok = same_dataset(data::load_tudataset(dir, "DS"), expected, diag);
          data::TUDatasetStream stream(dir, "DS");
          ok = same_dataset(data::materialize(stream, "DS"), expected, diag) && ok;
          return ok;
        }
        // The reference, the loader and the stream all stop at the bad row.
        const std::size_t f = c.malformed->first;
        const fs::path file = tu_file(dir, f);
        const auto failure = [&](auto&& read) -> std::string {
          try {
            read();
          } catch (const std::runtime_error& error) {
            return where(error.what(), file);
          }
          return "(accepted)";
        };
        const std::string reference =
            failure([&] { (void)testsupport::reference_rows(file, kArity[f]); });
        const std::string loader = failure([&] { (void)data::load_tudataset(dir, "DS"); });
        const std::string stream = failure([&] {
          data::TUDatasetStream s(dir, "DS");
          (void)data::materialize(s, "DS");
        });
        diag << " [expected " << malformed_at << "; reference " << reference << ", loader "
             << loader << ", stream " << stream << "]";
        return reference == malformed_at && loader == malformed_at && stream == malformed_at;
      },
      proptest::Config{.cases = 16, .min_cases = 4});
  fs::remove_all(dir);
}

}  // namespace
