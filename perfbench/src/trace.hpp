/// \file trace.hpp
/// In-memory span recorder of the traced run.
///
/// Spans are recorded from the benchmark's own files around calls into one
/// layer's public functions: the name's prefix up to the first '.' is the
/// layer ("data", "parallel", "hdc", "core", "net"), and spans named "e2e.*"
/// are the roots the layers are attributed against.  Each
/// thread appends to its own buffer, so recording takes no lock; the buffers
/// are read only after every recording thread has been joined.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;     ///< index into the same thread's buffer, or kNoParent.
    std::uint64_t request;  ///< iteration or request id the span belongs to.
  };

  explicit Tracer(std::size_t threads) : spans_(threads) {}

  /// Appends a finished span; returns its index in `thread`'s buffer.
  std::size_t record(std::size_t thread, const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t request,
                     std::size_t parent = kNoParent) {
    spans_[thread].push_back({name, start, end, parent, request});
    return spans_[thread].size() - 1;
  }

  /// Starts a span that close() ends (for parents whose children need its
  /// index before it finishes).
  std::size_t open(std::size_t thread, const char* name, std::uint64_t request,
                   std::size_t parent = kNoParent) {
    const auto now = Clock::now();
    return record(thread, name, now, now, request, parent);
  }

  void close(std::size_t thread, std::size_t span) { spans_[thread][span].end = Clock::now(); }

  void set_parent(std::size_t thread, std::size_t span, std::size_t parent) {
    spans_[thread][span].parent = parent;
  }

  /// Durations in microseconds of every span called `name`, on any thread.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Per layer, over threads [first, last): the share of root ("e2e.*")
  /// time covered by that layer's spans.  Root time is the union of root
  /// intervals per thread.
  [[nodiscard]] std::map<std::string, double> layer_shares(std::size_t first,
                                                           std::size_t last) const;

  /// Root time covered by no other span, as a share of root time.
  [[nodiscard]] double unattributed_share() const;

  /// Writes every span as one JSON object per line (times in ns from the
  /// earliest span).
  void write(const std::filesystem::path& path) const;

 private:
  std::vector<std::vector<Span>> spans_;
};

/// Records the span [construction, destruction) on `tracer` when it is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::size_t thread, const char* name, std::uint64_t request,
             std::size_t parent)
      : tracer_(tracer), thread_(thread), name_(name), request_(request), parent_(parent),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(thread_, name_, start_, Clock::now(), request_, parent_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t thread_;
  const char* name_;
  std::uint64_t request_;
  std::size_t parent_;
  Clock::time_point start_;
};

}  // namespace perfbench
