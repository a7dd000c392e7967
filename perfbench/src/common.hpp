/// \file common.hpp
/// Clock, statistics and comparison helpers shared by the benchmark flows.

#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile (q in [0, 1]); infinity counts as a value, so a
/// failed request recorded as +inf misses every latency limit.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Label, score and every class score equal to the bit.
[[nodiscard]] inline bool same_prediction(const graphhd::core::Prediction& a,
                                          const graphhd::core::Prediction& b) {
  if (a.label != b.label || a.class_scores.size() != b.class_scores.size() ||
      std::bit_cast<std::uint64_t>(a.score) != std::bit_cast<std::uint64_t>(b.score)) {
    return false;
  }
  for (std::size_t i = 0; i < a.class_scores.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.class_scores[i]) !=
        std::bit_cast<std::uint64_t>(b.class_scores[i])) {
      return false;
    }
  }
  return true;
}

/// Sleeps until shortly before `due`, then yields until it passes.  A plain
/// sleep overshoots by the timer slack, which would add to every latency
/// measured from the due time; and on a VM a generator whose vCPU halts
/// between requests pays a vCPU wake-up on each one.
inline void wait_until(Clock::time_point due) {
  constexpr auto kSpinWindow = std::chrono::microseconds(150);
  if (due - Clock::now() > kSpinWindow) std::this_thread::sleep_until(due - kSpinWindow);
  while (Clock::now() < due) std::this_thread::yield();
}

/// Exponential inter-arrival gaps of a Poisson process at `rate` per second,
/// as due times in [start, start + seconds).
template <typename Rng>
[[nodiscard]] std::vector<Clock::time_point> poisson_schedule(Rng& rng, double rate,
                                                              double seconds,
                                                              Clock::time_point start) {
  std::vector<Clock::time_point> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(t)));
  }
  return due;
}

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class Metrics {
 public:
  void set(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  /// {"name": {"value": v, "unit": "u"}, ...}; a non-finite value prints as
  /// null.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      char value[64] = "null";
      if (std::isfinite(entry.value)) std::snprintf(value, sizeof value, "%.10g", entry.value);
      out += (i == 0 ? "\"" : ", \"") + entry.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entry.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
