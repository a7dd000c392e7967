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
///   2. *TUDataset round trip* — the same workload is written through
///      TUDatasetWriter into a temporary directory, then fit_stream and
///      predict_stream run from a TUDatasetStream over it.  Predictions must
///      be bit-identical to phase 1's, under the same RSS ceiling.
///   3. *Equivalence phase* — the same stream is materialized, fit() and
///      predict_batch() run on it, and every prediction (label and score)
///      must be bit-identical to the streamed ones.
///   4. *Kernel sweep* — predict_stream vs predict_batch re-run under every
///      compiled-in, CPU-supported kernel variant (scalar, AVX2, ...); all
///      variants must agree with each other bit for bit.
///   5. *Builder scaling* — GraphBuilder (add_edge, then build) on a random
///      graph (m edges drawn over m/4 vertices) and on a star, at 12,500 and
///      200,000 edges, best of 3 each.  Exit 1 when the per-edge time at
///      200k exceeds 4x that at 12.5k: graph construction must stay linear.
///
/// Output: one JSON object (schema "graphhd-bench-stress/v2") on stdout;
/// progress on stderr.  Exit 1 on any divergence, an RSS breach or a
/// superlinear builder.
///
/// Environment knobs:
///   GRAPHHD_STRESS_EDGES        total edge budget          (default 1000000)
///   GRAPHHD_STRESS_GRAPH_EDGES  edges per graph            (default 16384)
///   GRAPHHD_STRESS_DIM          hypervector dimension      (default 10000)
///   GRAPHHD_STRESS_CHUNK        stream chunk size          (default 8)
///   GRAPHHD_STRESS_RSS_MB       RSS ceiling of phases 1-2  (default 512)
///   GRAPHHD_STRESS_SKIP_MATERIALIZED  1 = phases 3-4 off (pure scale runs
///                               where the workload exceeds RAM)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "data/stream.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
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

using VertexPairs = std::vector<std::pair<graphhd::graph::VertexId, graphhd::graph::VertexId>>;

/// Best-of-3 GraphBuilder time per edge, in microseconds, for `pairs` over
/// `vertices` vertices.
double build_us_per_edge(std::size_t vertices, const VertexPairs& pairs) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    graphhd::graph::GraphBuilder builder(vertices);
    for (const auto& [u, v] : pairs) builder.add_edge(u, v);
    (void)builder.build();
    best = std::min(best, seconds_since(start));
  }
  return 1e6 * best / static_cast<double>(pairs.size());
}

struct BuilderScaling {
  double random_small = 0.0, random_large = 0.0;  ///< us per edge.
  double star_small = 0.0, star_large = 0.0;
};

BuilderScaling measure_builder(std::size_t small, std::size_t large) {
  using graphhd::graph::VertexId;
  const auto random_pairs = [](std::size_t edges) {
    graphhd::hdc::Rng rng(0xb1d5ca1eULL);
    const std::size_t vertices = edges / 4;
    VertexPairs pairs(edges);
    for (auto& pair : pairs) {
      const auto u = static_cast<VertexId>(rng.next_below(vertices));
      pair = {u, static_cast<VertexId>(rng.next_below(vertices))};
    }
    return pairs;
  };
  const auto star_pairs = [](std::size_t edges) {
    VertexPairs pairs(edges);
    for (std::size_t i = 0; i < edges; ++i) pairs[i] = {0, static_cast<VertexId>(i + 1)};
    return pairs;
  };
  BuilderScaling scaling;
  scaling.random_small = build_us_per_edge(small / 4, random_pairs(small));
  scaling.random_large = build_us_per_edge(large / 4, random_pairs(large));
  scaling.star_small = build_us_per_edge(small + 1, star_pairs(small));
  scaling.star_large = build_us_per_edge(large + 1, star_pairs(large));
  return scaling;
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

  // ---- Phase 2: the workload through a TUDataset directory, RSS gated. ----
  const std::string tu_name = "graphhd_stress_stream_" + std::to_string(::getpid());
  const std::filesystem::path tu_dir = std::filesystem::temp_directory_path() / tu_name;
  {
    data::TUDatasetWriter writer(tu_dir, "RMAT");
    auto source = make_stream();
    while (auto sample = source.next()) writer.append(sample->graph, sample->label);
    writer.close();
  }
  data::TUDatasetStream tu_stream(tu_dir, "RMAT");
  core::GraphHdModel tu_model(config, tu_stream.num_classes());
  const auto tu_fit_start = Clock::now();
  tu_model.fit_stream(tu_stream, {.chunk = chunk});
  const double tu_fit_seconds = seconds_since(tu_fit_start);
  const auto tu_predict_start = Clock::now();
  const auto tu_predictions = tu_model.predict_stream(tu_stream, {.chunk = chunk});
  const double tu_predict_seconds = seconds_since(tu_predict_start);
  std::filesystem::remove_all(tu_dir);
  const bool tu_identical = predictions_identical(tu_predictions, streamed_predictions);
  if (!tu_identical) {
    std::fprintf(stderr, "stress_stream: FAIL — TUDatasetStream predictions diverge from the "
                         "generator stream's\n");
  }
  const std::size_t tu_rss_mb = peak_rss_mb();
  const bool tu_rss_ok = !rss_known || tu_rss_mb <= rss_ceiling_mb;
  if (rss_known) {
    std::fprintf(stderr, "stress_stream: TUDataset-phase peak RSS %zu MB (ceiling %zu MB)\n",
                 tu_rss_mb, rss_ceiling_mb);
  }

  // ---- Phases 3 + 4: materialized equivalence and the kernel sweep. ----
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

  // ---- Phase 5: builder scaling. ----
  constexpr std::size_t kSmallBuild = 12'500;
  constexpr std::size_t kLargeBuild = 200'000;
  constexpr double kMaxBuildGrowth = 4.0;
  const BuilderScaling builder = measure_builder(kSmallBuild, kLargeBuild);
  const double random_growth = builder.random_large / builder.random_small;
  const double star_growth = builder.star_large / builder.star_small;
  const bool builder_linear = random_growth <= kMaxBuildGrowth && star_growth <= kMaxBuildGrowth;
  if (!builder_linear) {
    std::fprintf(stderr,
                 "stress_stream: FAIL — per-edge build time grows %.2fx (random) / %.2fx (star) "
                 "from %zu to %zu edges (limit %.1fx)\n",
                 random_growth, star_growth, kSmallBuild, kLargeBuild, kMaxBuildGrowth);
  }

  const bool ok = rss_ok && tu_rss_ok && tu_identical && materialized_identical &&
                  kernel_divergence.empty() && builder_linear;
  const double edges_per_second =
      fit_seconds > 0.0 ? static_cast<double>(streamed_edges) / fit_seconds : 0.0;

  std::printf("{\n");
  std::printf("  \"schema\": \"graphhd-bench-stress/v2\",\n");
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
  std::printf("  \"tudataset\": {\"fit_stream_seconds\": %.3f, \"predict_stream_seconds\": %.3f, "
              "\"peak_rss_mb\": %zu, \"rss_ok\": %s, \"identical\": %s},\n",
              tu_fit_seconds, tu_predict_seconds, tu_rss_mb, tu_rss_ok ? "true" : "false",
              tu_identical ? "true" : "false");
  std::printf("  \"builder\": {\"random_us_per_edge_12500\": %.4f, "
              "\"random_us_per_edge_200000\": %.4f, \"star_us_per_edge_12500\": %.4f, "
              "\"star_us_per_edge_200000\": %.4f, \"random_growth\": %.3f, "
              "\"star_growth\": %.3f, \"max_growth\": %.1f, \"linear\": %s},\n",
              builder.random_small, builder.random_large, builder.star_small, builder.star_large,
              random_growth, star_growth, kMaxBuildGrowth, builder_linear ? "true" : "false");
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
