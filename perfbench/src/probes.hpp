/// \file probes.hpp
/// The traced run: per-layer metrics of one workload.

#pragma once

#include <cstdint>
#include <filesystem>

#include "common.hpp"
#include "flows.hpp"

namespace perfbench {

/// Runs the train and remote flows with spans, times each layer's public
/// calls on the workload's own graphs, writes the spans to `trace_file` and
/// fills `metrics` with every per-layer metric.  Checked answers count into
/// `tally`.
void measure_layers(Deployment& deployment, const Workload& workload, std::uint64_t seed,
                    double seconds, const std::filesystem::path& trace_file, Metrics& metrics,
                    Tally& tally);

}  // namespace perfbench
