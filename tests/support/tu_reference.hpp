/// \file tu_reference.hpp
/// Line-based reference parser of the TUDataset row grammar, for tests.
///
/// It restates, line for line, how the loaders parsed rows before they
/// shared data::text_io::RowReader: std::getline, a trim that cuts a '#'
/// comment and strips " \t\r\n" from both ends, then a token loop that skips
/// runs of spaces, tabs and commas and parses each token with
/// std::from_chars.  Errors name `file:line` the way RowReader's do, so a
/// test can check that both readers reject the same row.

#pragma once

#include <charconv>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace graphhd::testsupport {

/// One non-blank row: its 1-based line number and its values.
struct ReferenceRow {
  std::size_t line = 0;
  std::vector<long long> values;

  friend bool operator==(const ReferenceRow&, const ReferenceRow&) = default;
};

[[nodiscard]] inline std::string_view reference_trim(std::string_view line) {
  if (const auto hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// What the reference makes of a file: its rows up to the first bad one,
/// and that row's error ("" when every row is good).
struct ReferenceReading {
  std::vector<ReferenceRow> rows;
  std::string error;  ///< "<file>:<line>: <what>".
};

/// Reads every non-blank row of `file`, each of which must hold `arity`
/// integers, stopping at the first row that does not.
[[nodiscard]] inline ReferenceReading reference_read(const std::filesystem::path& file,
                                                     std::size_t arity) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot open " + file.string());
  ReferenceReading reading;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = reference_trim(line);
    if (trimmed.empty()) continue;
    const std::string where = file.string() + ":" + std::to_string(line_no) + ": ";
    ReferenceRow row{line_no, {}};
    const char* it = trimmed.data();
    const char* end = trimmed.data() + trimmed.size();
    while (it != end) {
      while (it != end && (*it == ' ' || *it == '\t' || *it == ',')) ++it;
      if (it == end) break;
      long long value = 0;
      const auto [next, ec] = std::from_chars(it, end, value);
      if (ec != std::errc{}) {
        reading.error = where + "expected integer, got '" + std::string(trimmed) + "'";
        return reading;
      }
      row.values.push_back(value);
      it = next;
    }
    if (row.values.size() != arity) {
      reading.error = where + "expected " + std::to_string(arity) + " integer(s)";
      return reading;
    }
    reading.rows.push_back(std::move(row));
  }
  return reading;
}

/// reference_read, throwing std::runtime_error at the first bad row.
[[nodiscard]] inline std::vector<ReferenceRow> reference_rows(const std::filesystem::path& file,
                                                              std::size_t arity) {
  auto reading = reference_read(file, arity);
  if (!reading.error.empty()) throw std::runtime_error(reading.error);
  return std::move(reading.rows);
}

}  // namespace graphhd::testsupport
