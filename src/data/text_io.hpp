/// \file text_io.hpp
/// The one row reader of the TUDataset text format.
/// Internal to src/data — the materialized loader, the streaming reader and
/// the column reader share it, so they accept the same grammar and reject
/// malformed input with the same `file:line` messages.
///
/// Row grammar: integers separated by any run of spaces, tabs and commas;
/// '#' starts a comment that runs to the end of the line; leading and
/// trailing spaces, tabs and carriage returns are dropped (so CRLF files
/// read like LF files); rows left blank by that are skipped; the last row
/// needs no final newline.  Values parse with std::from_chars, so a leading
/// '-' is accepted and a leading '+' is not.

#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace graphhd::data::text_io {

/// Buffered reader of integer rows that allocates nothing per row.  One
/// fixed buffer is allocated when the file opens and refilled with read(2);
/// a row is parsed in place, straight into the caller's slots.  A row must
/// fit in the buffer: one of kCapacity or more bytes, newline excluded,
/// fails with `file:line`.  Memory is O(kCapacity) whatever the file size,
/// which is what keeps TUDatasetStream bounded.
class RowReader {
 public:
  static constexpr std::size_t kCapacity = std::size_t{64} * 1024;

  /// Opens `file`; throws std::runtime_error when it cannot.
  explicit RowReader(const std::filesystem::path& file);
  ~RowReader();
  RowReader(const RowReader&) = delete;
  RowReader& operator=(const RowReader&) = delete;

  /// Parses the next non-blank row into `slots`, which must receive exactly
  /// slots.size() integers.  Returns false at the end of the file.  Throws
  /// std::runtime_error naming `file:line` on a malformed token, a row of
  /// another arity or a row longer than the buffer.
  bool next(std::span<long long> slots);

  /// Line number (1-based) of the row the last next() returned; 0 before.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

  /// Throws std::runtime_error "<file>:<line>: <what>" for the current row.
  [[noreturn]] void fail(std::string_view what) const;

 private:
  /// Fast path for the common row: values and separators only, ended by
  /// "\n" or "\r\n" inside the buffered bytes, with the right arity.  Parses
  /// it into `slots` and consumes it; returns false, consuming nothing, on
  /// anything else (blank lines, comments, padding, errors, a buffer
  /// boundary), which next() then reads line by line.
  bool next_common_row(std::span<long long> slots);
  /// The next raw line (without its newline), or false at the end of the
  /// file.  The view stays valid until the following call.
  bool next_line(std::string_view& line);
  /// Moves the unconsumed bytes to the front and reads more behind them;
  /// returns where the new bytes start.  Fails when a row fills the buffer.
  std::size_t refill();

  std::filesystem::path file_;
  int fd_ = -1;
  std::unique_ptr<char[]> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed byte.
  std::size_t end_ = 0;    ///< one past the last buffered byte.
  bool eof_ = false;
  std::size_t line_ = 0;
};

/// Reads one integer per non-blank row of `file`.
[[nodiscard]] std::vector<long long> read_int_column(const std::filesystem::path& file);

/// The distinct values of a one-integer-per-row column, ascending (a value's
/// position is its dense id).  Memory is O(distinct values), not O(rows).
[[nodiscard]] std::vector<long long> read_distinct_column(const std::filesystem::path& file);

}  // namespace graphhd::data::text_io
