#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// Sorts and merges overlapping intervals.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const auto& interval : intervals) {
    if (!out.empty() && interval.first <= out.back().second) {
      out.back().second = std::max(out.back().second, interval.second);
    } else {
      out.push_back(interval);
    }
  }
  return out;
}

double total_seconds(const std::vector<Interval>& disjoint) {
  double sum = 0.0;
  for (const auto& [from, to] : disjoint) sum += seconds_between(from, to);
  return sum;
}

/// Length of the part of `a` that `b` covers (both merged, disjoint, sorted).
double overlap_seconds(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double sum = 0.0;
  std::size_t j = 0;
  for (const auto& [from, to] : a) {
    while (j < b.size() && b[j].second <= from) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < to; ++k) {
      const auto lo = std::max(from, b[k].first);
      const auto hi = std::min(to, b[k].second);
      if (lo < hi) sum += seconds_between(lo, hi);
    }
  }
  return sum;
}

bool is_root(const Tracer::Span& span) {
  return std::string_view(span.name).starts_with("e2e.");
}

std::string layer_of(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

}  // namespace

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& buffer : spans_) {
    for (const Span& span : buffer) {
      if (name == span.name) out.push_back(micros_between(span.start, span.end));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::layer_shares(std::size_t first, std::size_t last) const {
  double root_seconds = 0.0;
  std::map<std::string, double> covered;
  for (std::size_t thread = first; thread < last && thread < spans_.size(); ++thread) {
    const auto& buffer = spans_[thread];
    std::vector<Interval> roots;
    std::map<std::string, std::vector<Interval>> by_layer;
    for (const Span& span : buffer) {
      if (is_root(span)) {
        roots.emplace_back(span.start, span.end);
      } else {
        by_layer[layer_of(span.name)].emplace_back(span.start, span.end);
      }
    }
    const auto root_union = merged(std::move(roots));
    root_seconds += total_seconds(root_union);
    for (auto& [layer, intervals] : by_layer) {
      covered[layer] += overlap_seconds(root_union, merged(std::move(intervals)));
    }
  }
  for (auto& [layer, seconds] : covered) {
    seconds = root_seconds > 0.0 ? seconds / root_seconds : 0.0;
  }
  return covered;
}

double Tracer::unattributed_share() const {
  double root_seconds = 0.0;
  double covered_seconds = 0.0;
  for (const auto& buffer : spans_) {
    std::vector<Interval> roots;
    std::vector<Interval> children;
    for (const Span& span : buffer) {
      (is_root(span) ? roots : children).emplace_back(span.start, span.end);
    }
    const auto root_union = merged(std::move(roots));
    root_seconds += total_seconds(root_union);
    covered_seconds += overlap_seconds(root_union, merged(std::move(children)));
  }
  return root_seconds > 0.0 ? 1.0 - covered_seconds / root_seconds : 0.0;
}

void Tracer::write(const std::filesystem::path& path) const {
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& buffer : spans_) {
    for (const Span& span : buffer) origin = std::min(origin, span.start);
  }
  std::ofstream out(path);
  for (std::size_t thread = 0; thread < spans_.size(); ++thread) {
    const auto& buffer = spans_[thread];
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      const Span& span = buffer[i];
      const auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
      };
      out << "{\"thread\":" << thread << ",\"span\":" << i << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << ns(span.start) << ",\"end_ns\":" << ns(span.end)
          << ",\"parent\":";
      if (span.parent == kNoParent) {
        out << "null";
      } else {
        out << span.parent;
      }
      out << ",\"request\":" << span.request << "}\n";
    }
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path.string());
}

}  // namespace perfbench
