/// \file text_io.hpp
/// Shared line-oriented parsing helpers for the TUDataset text format.
/// Internal to src/data — the loaders and the streaming readers must reject
/// malformed input with the same messages, so they share one strict parser.

#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace graphhd::data::text_io {

/// Strips whitespace and a trailing '#'-comment from a line.
[[nodiscard]] std::string_view trim(std::string_view line);

/// Parses all integers on a line separated by commas and/or whitespace.
/// Throws std::runtime_error naming `file`:`line_no` on a malformed token.
[[nodiscard]] std::vector<long long> parse_ints(std::string_view line,
                                                const std::filesystem::path& file,
                                                std::size_t line_no);

/// Reads one integer per non-empty line of `file`.
[[nodiscard]] std::vector<long long> read_int_column(const std::filesystem::path& file);

}  // namespace graphhd::data::text_io
