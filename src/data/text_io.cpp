#include "data/text_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace graphhd::data::text_io {

namespace {

[[nodiscard]] constexpr bool is_separator(char c) noexcept {
  return c == ' ' || c == '\t' || c == ',';
}

[[nodiscard]] constexpr bool is_padding(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r';
}

/// Drops a '#' comment and the padding around what is left.
[[nodiscard]] std::string_view strip(std::string_view line) noexcept {
  if (const void* hash = std::memchr(line.data(), '#', line.size())) {
    line = line.substr(0, static_cast<std::size_t>(static_cast<const char*>(hash) - line.data()));
  }
  while (!line.empty() && is_padding(line.front())) line.remove_prefix(1);
  while (!line.empty() && is_padding(line.back())) line.remove_suffix(1);
  return line;
}

}  // namespace

RowReader::RowReader(const std::filesystem::path& file) : file_(file) {
  fd_ = ::open(file_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("tudataset: cannot open " + file_.string());
  }
  buffer_ = std::make_unique_for_overwrite<char[]>(kCapacity);
}

RowReader::~RowReader() {
  if (fd_ >= 0) ::close(fd_);
}

void RowReader::fail(std::string_view what) const {
  throw std::runtime_error(file_.string() + ":" + std::to_string(line_) + ": " + std::string(what));
}

bool RowReader::next_line(std::string_view& line) {
  std::size_t scanned = begin_;  // [begin_, scanned) is known to hold no newline.
  while (true) {
    char* const base = buffer_.get();
    if (const void* found = std::memchr(base + scanned, '\n', end_ - scanned)) [[likely]] {
      const auto newline = static_cast<std::size_t>(static_cast<const char*>(found) - base);
      line = std::string_view(base + begin_, newline - begin_);
      begin_ = newline + 1;
      ++line_;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      line = std::string_view(base + begin_, end_ - begin_);  // no final newline.
      begin_ = end_;
      ++line_;
      return true;
    }
    scanned = refill();
  }
}

std::size_t RowReader::refill() {
  char* const base = buffer_.get();
  const std::size_t pending = end_ - begin_;
  if (pending == kCapacity) {
    ++line_;
    fail("row longer than " + std::to_string(kCapacity - 1) + " bytes");
  }
  if (begin_ > 0) {
    std::memmove(base, base + begin_, pending);
    begin_ = 0;
    end_ = pending;
  }
  const std::size_t scanned = end_;
  ssize_t got = 0;
  do {
    got = ::read(fd_, base + end_, kCapacity - end_);
  } while (got < 0 && errno == EINTR);
  if (got < 0) {
    throw std::runtime_error("tudataset: cannot read " + file_.string() + ": " +
                             std::strerror(errno));
  }
  if (got == 0) eof_ = true;
  end_ += static_cast<std::size_t>(got);
  return scanned;
}

bool RowReader::next_common_row(std::span<long long> slots) {
  char* const base = buffer_.get();
  const char* it = base + begin_;
  const char* const end = base + end_;
  std::size_t count = 0;
  while (true) {
    while (it != end && is_separator(*it)) ++it;
    if (it == end) return false;
    if (*it == '\n' || (*it == '\r' && it + 1 != end && it[1] == '\n')) {
      if (count != slots.size()) return false;
      begin_ = static_cast<std::size_t>(it - base) + (*it == '\n' ? 1 : 2);
      ++line_;
      return true;
    }
    if (count == slots.size()) return false;
    const auto [next, ec] = std::from_chars(it, end, slots[count]);
    if (ec != std::errc{} || next == end) return false;
    ++count;
    it = next;
  }
}

bool RowReader::next(std::span<long long> slots) {
  if (next_common_row(slots)) return true;
  std::string_view line;
  while (next_line(line)) {
    const std::string_view row = strip(line);
    if (row.empty()) continue;
    const char* it = row.data();
    const char* const end = row.data() + row.size();
    std::size_t count = 0;
    while (true) {
      while (it != end && is_separator(*it)) ++it;
      if (it == end) break;
      long long overflow_slot = 0;  // surplus values still parse, so a bad token wins.
      long long& value = count < slots.size() ? slots[count] : overflow_slot;
      const auto [next, ec] = std::from_chars(it, end, value);
      if (ec != std::errc{}) fail("expected integer, got '" + std::string(row) + "'");
      ++count;
      it = next;
    }
    if (count != slots.size()) {
      fail("expected " + std::to_string(slots.size()) + " integer(s), got " +
           std::to_string(count));
    }
    return true;
  }
  return false;
}

std::vector<long long> read_int_column(const std::filesystem::path& file) {
  RowReader reader(file);
  std::vector<long long> values;
  long long value = 0;
  while (reader.next({&value, 1})) values.push_back(value);
  return values;
}

std::vector<long long> read_distinct_column(const std::filesystem::path& file) {
  RowReader reader(file);
  std::vector<long long> values;
  const auto sort_unique = [&values] {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  };
  // Compacting once the list holds twice the distinct count seen at the last
  // compaction keeps the work O(rows log rows) and the memory O(distinct).
  constexpr std::size_t kMinCompact = 1024;
  std::size_t compact_at = kMinCompact;
  long long value = 0;
  while (reader.next({&value, 1})) {
    if (!values.empty() && values.back() == value) continue;
    values.push_back(value);
    if (values.size() == compact_at) {
      sort_unique();
      compact_at = std::max(kMinCompact, 2 * values.size());
    }
  }
  sort_unique();
  return values;
}

}  // namespace graphhd::data::text_io
