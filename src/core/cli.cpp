#include "core/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace graphhd::core::cli {

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Two-row Levenshtein; flag names are short so quadratic time is fine.
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    prev[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, substitute});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string nearest_flag(std::string_view unknown, const FlagSpec& spec) {
  std::string best;
  std::size_t best_distance = std::max<std::size_t>(2, unknown.size() / 2) + 1;
  const auto consider = [&](std::string_view candidate) {
    const std::size_t d = edit_distance(unknown, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = std::string(candidate);
    }
  };
  for (const std::string_view flag : spec.valued) {
    consider(flag);
  }
  for (const std::string_view flag : spec.boolean) {
    consider(flag);
  }
  return best;
}

namespace {

bool contains(std::span<const std::string_view> flags, std::string_view key) {
  return std::find(flags.begin(), flags.end(), key) != flags.end();
}

[[noreturn]] void reject_unknown(const std::string& key, const FlagSpec& spec) {
  std::string message = "unknown flag --" + key;
  const std::string suggestion = nearest_flag(key, spec);
  if (!suggestion.empty()) {
    message += " (did you mean --" + suggestion + "?)";
  }
  throw UsageError(message);
}

}  // namespace

Args::Args(int argc, char** argv, int first, const FlagSpec& spec) {
  for (int i = first; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      throw UsageError("unexpected argument '" + std::string(token) +
                       "' (flags are --key [value])");
    }
    const std::string key(token.substr(2));
    if (contains(spec.boolean, key)) {
      // insert_or_assign moves a built string in: assigning the literal to
      // the mapped string trips a gcc 12 -Wrestrict false positive.
      values_.insert_or_assign(key, std::string("1"));
      continue;
    }
    if (!contains(spec.valued, key)) {
      reject_unknown(key, spec);
    }
    if (i + 1 >= argc) {
      throw UsageError("flag --" + key + " requires a value");
    }
    values_[key] = argv[++i];
  }
}

namespace {

[[noreturn]] void reject_number(std::string_view flag, std::string_view text,
                                const char* reason) {
  throw UsageError("invalid value '" + std::string(text) + "' for --" + std::string(flag) +
                   " (" + reason + ")");
}

std::uint64_t parse_u64_base(std::string_view flag, std::string_view text, int base) {
  // std::from_chars never skips whitespace and never accepts '+'/'-', which
  // is exactly the strictness we want: "-1" must not wrap to 2^64 - 1.
  if (text.empty()) {
    reject_number(flag, text, "expected an unsigned integer");
  }
  std::uint64_t value = 0;
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec == std::errc::result_out_of_range) {
    reject_number(flag, text, "out of range for a 64-bit unsigned integer");
  }
  if (ec != std::errc{} || ptr != end) {
    reject_number(flag, text, "expected an unsigned integer");
  }
  return value;
}

}  // namespace

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  return parse_u64_base(flag, text, 10);
}

std::uint64_t parse_u64_any_base(std::string_view flag, std::string_view text) {
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return parse_u64_base(flag, text.substr(2), 16);
  }
  return parse_u64_base(flag, text, 10);
}

double parse_double(std::string_view flag, std::string_view text) {
  // strtod instead of from_chars: libstdc++'s floating from_chars is fine,
  // but strtod with explicit end/errno checks keeps the same strictness and
  // sidesteps historical gaps in floating-point charconv support.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    reject_number(flag, text, "expected a number");
  }
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size() || end == owned.c_str()) {
    reject_number(flag, text, "expected a number");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    reject_number(flag, text, "out of range");
  }
  return value;
}

}  // namespace graphhd::core::cli
