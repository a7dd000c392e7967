/// \file stress_eval.cpp
/// Streaming-evaluation stress gate: a full k-fold cross-validation over a
/// million-edge R-MAT stream under an RSS ceiling.
///
/// stress_stream gates fit_stream/predict_stream; this harness gates the
/// layer above — cross_validate_stream's two-pass protocol (label scan, then
/// per-fold filtered replays) — at the same scale.  Phases, in order:
///
///   1. *Streaming CV phase* — cross_validate_stream over the generator
///      (GRAPHHD_EVALSTRESS_FOLDS folds x 1 repetition).  The resident-set
///      high-water mark is sampled right after, BEFORE anything is
///      materialized, and gated against GRAPHHD_STRESS_RSS_MB (exit 1 on
///      breach): an eval-layer regression that materializes a fold — or the
///      whole stream — shows up here.
///   2. *Equivalence phase* — the stream is materialized and the classic
///      cross_validate runs on it with the same seed; every per-fold
///      accuracy and every recorded prediction must be bit-identical to the
///      streamed protocol's.
///
/// Output: one JSON object (schema "graphhd-bench-evalstress/v1") on stdout;
/// progress on stderr.  Exit 1 on any divergence or an RSS breach.
/// bench/check_perf.py gates the JSON against bench/baselines/evalstress.json
/// in the CI perf-baseline job.
///
/// Environment knobs:
///   GRAPHHD_EVALSTRESS_EDGES        total edge budget        (default 1000000)
///   GRAPHHD_EVALSTRESS_GRAPH_EDGES  edges per graph          (default 16384)
///   GRAPHHD_EVALSTRESS_DIM          hypervector dimension    (default 4096)
///   GRAPHHD_EVALSTRESS_CHUNK        stream chunk size        (default 8)
///   GRAPHHD_EVALSTRESS_FOLDS       folds                     (default 3)
///   GRAPHHD_STRESS_RSS_MB           streaming-phase RSS ceiling (default 512,
///                                   shared with stress_stream)
///   GRAPHHD_EVALSTRESS_SKIP_MATERIALIZED  1 = phase 2 off (pure scale runs
///                                   where the workload exceeds RAM)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "data/stream.hpp"
#include "eval/baselines.hpp"
#include "eval/cross_validation.hpp"
#include "graph/generators.hpp"
#include "hdc/kernels/kernels.hpp"
#include "hdc/random.hpp"
#include "support/env.hpp"

namespace {

using Clock = std::chrono::steady_clock;

using graphhd::bench::env_size;
using graphhd::bench::peak_rss_mb;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-fold accuracies and recorded predictions must match bit for bit.
bool results_identical(const graphhd::eval::CvResult& streamed,
                       const graphhd::eval::CvResult& materialized) {
  if (streamed.folds.size() != materialized.folds.size()) return false;
  for (std::size_t f = 0; f < streamed.folds.size(); ++f) {
    if (streamed.folds[f].accuracy != materialized.folds[f].accuracy ||
        streamed.folds[f].predictions != materialized.folds[f].predictions ||
        streamed.folds[f].train_size != materialized.folds[f].train_size ||
        streamed.folds[f].test_size != materialized.folds[f].test_size) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace graphhd;
  namespace kernels = hdc::kernels;

  const std::size_t total_edges = env_size("GRAPHHD_EVALSTRESS_EDGES", 1'000'000);
  const std::size_t graph_edges = env_size("GRAPHHD_EVALSTRESS_GRAPH_EDGES", 16'384);
  const std::size_t dimension = env_size("GRAPHHD_EVALSTRESS_DIM", 4'096);
  const std::size_t chunk = env_size("GRAPHHD_EVALSTRESS_CHUNK", 8);
  const std::size_t folds = env_size("GRAPHHD_EVALSTRESS_FOLDS", 3);
  const std::size_t rss_ceiling_mb = env_size("GRAPHHD_STRESS_RSS_MB", 512);
  const bool skip_materialized = env_size("GRAPHHD_EVALSTRESS_SKIP_MATERIALIZED", 0) != 0;

  // Ceil division, and at least one graph per fold and per class.
  const std::size_t num_graphs = std::max<std::size_t>(
      std::max<std::size_t>(2, folds), (total_edges + graph_edges - 1) / graph_edges);
  const std::size_t vertices = std::max<std::size_t>(16, graph_edges / 8);  // avg degree ~16.

  // Same two R-MAT classes as stress_stream: Graph500 skew vs near-uniform.
  const auto factory = [graph_edges, vertices](std::size_t, std::size_t label,
                                               hdc::Rng& rng) {
    graph::RmatParams params;
    if (label == 1) params = {.a = 0.30, .b = 0.25, .c = 0.25};
    return graph::rmat(vertices, graph_edges, params, rng);
  };
  const auto make_stream = [&] {
    return data::GeneratorStream(num_graphs, 2, /*seed=*/0x57e55eedULL, factory);
  };

  core::GraphHdConfig config;
  config.dimension = dimension;
  config.backend = core::Backend::kPackedBinary;  // the scale-serving path.

  eval::CvConfig cv;
  cv.folds = folds;
  cv.repetitions = 1;
  cv.stream.chunk = chunk;
  cv.record_predictions = true;  // the equivalence phase compares them all.

  std::fprintf(stderr,
               "stress_eval: %zu-fold CV over %zu graphs x %zu edges (%zu vertices), "
               "d=%zu, chunk=%zu\n",
               folds, num_graphs, graph_edges, vertices, dimension, chunk);

  // ---- Phase 1: streaming cross-validation, RSS gated. ----
  auto stream = make_stream();
  const auto cv_start = Clock::now();
  const eval::CvResult streamed = eval::cross_validate_stream(
      "GraphHD", eval::make_graphhd_stream_factory(config), stream, "evalstress-rmat", cv);
  const double cv_seconds = seconds_since(cv_start);

  const std::size_t streaming_rss_mb = peak_rss_mb();
  const bool rss_known = streaming_rss_mb > 0;
  const bool rss_ok = !rss_known || streaming_rss_mb <= rss_ceiling_mb;
  if (!rss_known) {
    std::fprintf(stderr, "stress_eval: VmHWM unavailable — RSS gate skipped\n");
  } else {
    std::fprintf(stderr, "stress_eval: streaming-phase peak RSS %zu MB (ceiling %zu MB)\n",
                 streaming_rss_mb, rss_ceiling_mb);
  }

  // ---- Phase 2: materialized equivalence (also sources the edge count —
  // a dedicated counting replay would regenerate the whole workload). ----
  bool materialized_identical = true;
  std::size_t streamed_edges = 0;
  if (!skip_materialized) {
    auto materialize_stream = make_stream();
    const data::GraphDataset dataset = data::materialize(materialize_stream, "evalstress-rmat");
    for (const auto& graph : dataset.graphs()) streamed_edges += graph.num_edges();
    const eval::CvResult materialized =
        eval::cross_validate("GraphHD", eval::make_graphhd_factory(config), dataset, cv);
    materialized_identical = results_identical(streamed, materialized);
    if (!materialized_identical) {
      std::fprintf(stderr,
                   "stress_eval: FAIL — streamed CV diverges from the materialized protocol\n");
    }
  } else {
    auto count_stream = make_stream();
    while (auto sample = count_stream.next()) streamed_edges += sample->graph.num_edges();
  }

  const bool ok = rss_ok && materialized_identical;
  const auto accuracy = streamed.accuracy();

  std::printf("{\n");
  std::printf("  \"schema\": \"graphhd-bench-evalstress/v1\",\n");
  std::printf("  \"kernel\": \"%s\",\n", kernels::active().name);
  std::printf("  \"graphs\": %zu,\n", num_graphs);
  std::printf("  \"edges_total\": %zu,\n", streamed_edges);
  std::printf("  \"vertices_per_graph\": %zu,\n", vertices);
  std::printf("  \"dimension\": %zu,\n", dimension);
  std::printf("  \"chunk\": %zu,\n", chunk);
  std::printf("  \"folds\": %zu,\n", folds);
  std::printf("  \"cv_seconds\": %.3f,\n", cv_seconds);
  std::printf("  \"train_seconds_per_fold\": %.3f,\n", streamed.train_seconds_per_fold());
  std::printf("  \"inference_seconds_per_graph\": %.6f,\n",
              streamed.inference_seconds_per_graph());
  std::printf("  \"accuracy_mean\": %.6f,\n", accuracy.mean);
  std::printf("  \"streaming_peak_rss_mb\": %zu,\n", streaming_rss_mb);
  std::printf("  \"rss_ceiling_mb\": %zu,\n", rss_ceiling_mb);
  std::printf("  \"rss_ok\": %s,\n", rss_ok ? "true" : "false");
  std::printf("  \"materialized_identical\": %s\n", materialized_identical ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}
