/// \file stress_stream.cpp
/// Streaming-ingestion stress gate: million-edge R-MAT workloads through
/// fit_stream / predict_stream under an RSS ceiling.
///
/// The workload is a GeneratorStream of R-MAT graphs (two classes: Graph500
/// skew vs near-uniform quadrants) totalling GRAPHHD_STRESS_EDGES edges.
/// Phases, in order:
///
///   1. *Streaming phase* — fit_stream + predict_stream over the generator,
///      chunked.  The resident-set high-water mark is sampled right after
///      this phase, BEFORE anything is materialized, and gated against
///      GRAPHHD_STRESS_RSS_MB (exit 1 on breach): a regression that
///      materializes the stream inside the model shows up here.
///   2. *Equivalence phase* — the same stream is materialized, fit() and
///      predict_batch() run on it, and every prediction (label and score)
///      must be bit-identical to the streamed ones.
///   3. *Kernel sweep* — predict_stream vs predict_batch re-run under every
///      compiled-in, CPU-supported kernel variant (scalar, AVX2, ...); all
///      variants must agree with each other bit for bit.
///
/// Output: one JSON object (schema "graphhd-bench-stress/v1") on stdout;
/// progress on stderr.  Exit 1 on any divergence or an RSS breach.
///
/// Environment knobs:
///   GRAPHHD_STRESS_EDGES        total edge budget          (default 1000000)
///   GRAPHHD_STRESS_GRAPH_EDGES  edges per graph            (default 16384)
///   GRAPHHD_STRESS_DIM          hypervector dimension      (default 10000)
///   GRAPHHD_STRESS_CHUNK        stream chunk size          (default 8)
///   GRAPHHD_STRESS_RSS_MB       streaming-phase RSS ceiling (default 512)
///   GRAPHHD_STRESS_SKIP_MATERIALIZED  1 = phases 2-3 off (pure scale runs
///                               where the workload exceeds RAM)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/stream.hpp"
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

bool predictions_identical(const std::vector<graphhd::core::Prediction>& a,
                           const std::vector<graphhd::core::Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].score != b[i].score) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace graphhd;
  namespace kernels = hdc::kernels;

  const std::size_t total_edges = env_size("GRAPHHD_STRESS_EDGES", 1'000'000);
  const std::size_t graph_edges = env_size("GRAPHHD_STRESS_GRAPH_EDGES", 16'384);
  const std::size_t dimension = env_size("GRAPHHD_STRESS_DIM", 10'000);
  const std::size_t chunk = env_size("GRAPHHD_STRESS_CHUNK", 8);
  const std::size_t rss_ceiling_mb = env_size("GRAPHHD_STRESS_RSS_MB", 512);
  const bool skip_materialized = env_size("GRAPHHD_STRESS_SKIP_MATERIALIZED", 0) != 0;

  // Ceil division: the produced workload must reach the requested budget.
  const std::size_t num_graphs =
      std::max<std::size_t>(2, (total_edges + graph_edges - 1) / graph_edges);
  const std::size_t vertices = std::max<std::size_t>(16, graph_edges / 8);  // avg degree ~16.

  // Two R-MAT classes: Graph500 skew vs a much flatter quadrant split.
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

  std::fprintf(stderr,
               "stress_stream: %zu graphs x %zu edges (%zu vertices), d=%zu, chunk=%zu\n",
               num_graphs, graph_edges, vertices, dimension, chunk);

  // ---- Phase 1: streaming fit + predict, RSS gated. ----
  auto stream = make_stream();
  core::GraphHdModel streamed_model(config, 2);
  const auto fit_start = Clock::now();
  streamed_model.fit_stream(stream, {.chunk = chunk});
  const double fit_seconds = seconds_since(fit_start);

  const auto predict_start = Clock::now();
  const auto streamed_predictions = streamed_model.predict_stream(stream, {.chunk = chunk});
  const double predict_seconds = seconds_since(predict_start);

  const std::size_t streaming_rss_mb = peak_rss_mb();
  const bool rss_known = streaming_rss_mb > 0;
  const bool rss_ok = !rss_known || streaming_rss_mb <= rss_ceiling_mb;
  if (!rss_known) {
    std::fprintf(stderr, "stress_stream: VmHWM unavailable — RSS gate skipped\n");
  } else {
    std::fprintf(stderr, "stress_stream: streaming-phase peak RSS %zu MB (ceiling %zu MB)\n",
                 streaming_rss_mb, rss_ceiling_mb);
  }

  std::size_t streamed_edges = 0;
  {
    auto count_stream = make_stream();
    while (auto sample = count_stream.next()) streamed_edges += sample->graph.num_edges();
  }

  // ---- Phases 2 + 3: materialized equivalence and the kernel sweep. ----
  bool materialized_identical = true;
  std::string kernel_divergence;
  std::vector<std::string> kernels_checked;
  if (!skip_materialized) {
    auto materialize_stream = make_stream();
    const data::GraphDataset dataset = data::materialize(materialize_stream, "stress-rmat");
    core::GraphHdModel materialized_model(config, 2);
    materialized_model.fit(dataset);
    const auto batch_predictions = materialized_model.predict_batch(dataset);
    materialized_identical = predictions_identical(streamed_predictions, batch_predictions);
    if (!materialized_identical) {
      std::fprintf(stderr, "stress_stream: FAIL — streamed predictions diverge from fit()/"
                           "predict_batch()\n");
    }

    for (const kernels::KernelOps* ops : kernels::compiled_variants()) {
      if (!ops->supported()) continue;
      kernels::set_active(*ops);
      auto variant_stream = make_stream();
      const auto variant_streamed =
          streamed_model.predict_stream(variant_stream, {.chunk = chunk});
      const auto variant_batch = materialized_model.predict_batch(dataset);
      kernels_checked.emplace_back(ops->name);
      if (!predictions_identical(variant_streamed, streamed_predictions) ||
          !predictions_identical(variant_batch, streamed_predictions)) {
        kernel_divergence = ops->name;
        std::fprintf(stderr, "stress_stream: FAIL — kernel '%s' diverges\n", ops->name);
        break;
      }
    }
    kernels::reset_from_env();
  }

  const bool ok = rss_ok && materialized_identical && kernel_divergence.empty();
  const double edges_per_second =
      fit_seconds > 0.0 ? static_cast<double>(streamed_edges) / fit_seconds : 0.0;

  std::printf("{\n");
  std::printf("  \"schema\": \"graphhd-bench-stress/v1\",\n");
  std::printf("  \"kernel\": \"%s\",\n", kernels::active().name);
  std::printf("  \"graphs\": %zu,\n", num_graphs);
  std::printf("  \"edges_total\": %zu,\n", streamed_edges);
  std::printf("  \"vertices_per_graph\": %zu,\n", vertices);
  std::printf("  \"dimension\": %zu,\n", dimension);
  std::printf("  \"chunk\": %zu,\n", chunk);
  std::printf("  \"fit_stream_seconds\": %.3f,\n", fit_seconds);
  std::printf("  \"predict_stream_seconds\": %.3f,\n", predict_seconds);
  std::printf("  \"encode_edges_per_s\": %.1f,\n", edges_per_second);
  std::printf("  \"streaming_peak_rss_mb\": %zu,\n", streaming_rss_mb);
  std::printf("  \"rss_ceiling_mb\": %zu,\n", rss_ceiling_mb);
  std::printf("  \"rss_ok\": %s,\n", rss_ok ? "true" : "false");
  std::printf("  \"materialized_identical\": %s,\n", materialized_identical ? "true" : "false");
  std::printf("  \"kernels_checked\": [");
  for (std::size_t i = 0; i < kernels_checked.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", kernels_checked[i].c_str());
  }
  std::printf("],\n");
  std::printf("  \"kernel_divergence\": \"%s\"\n", kernel_divergence.c_str());
  std::printf("}\n");
  return ok ? 0 : 1;
}
