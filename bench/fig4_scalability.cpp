/// \file fig4_scalability.cpp
/// Regenerates **Figure 4** of the paper: training time vs graph size for
/// GraphHD, GIN-ε and WL-OA on synthetic Erdős–Rényi datasets (2 classes,
/// 100 graphs, edge probability 0.05 — Section V-B), including the endpoint
/// ratios the paper quotes (6.2x vs GIN-ε, 15.0x vs WL-OA at 980 vertices).
///
/// The harness runs two parts:
///   1. a *thread sweep*: GraphHD batch encode (fit) + batch predict on one
///      synthetic dataset at 1/2/4/... threads, verifying the predictions
///      are bit-identical across thread counts and reporting speedups
///      (src/parallel/ is deterministic by construction);
///   2. the paper's Figure 4 method-vs-size curve (serial timing protocol).
///
/// Environment knobs:
///   GRAPHHD_MAX_VERTICES  largest graph size (default 980, the paper's max)
///   GRAPHHD_SIZE_STEP     x-axis step (default 240 for a minutes-scale run;
///                         the paper's curve uses a finer grid)
///   GRAPHHD_REPS          CV repetitions (default 1)
///   GRAPHHD_GIN_EPOCHS    GIN max epochs (default 25)
///   GRAPHHD_SWEEP_VERTICES  graph size of the thread-sweep dataset (default 300)
///   GRAPHHD_THREADS       worker count of the process pool for part 2
///   GRAPHHD_SKIP_FIGURE   when set, run only the thread sweep

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/pipeline.hpp"
#include "data/scalability.hpp"
#include "eval/experiment.hpp"
#include "eval/report.hpp"
#include "parallel/thread_pool.hpp"
#include "support/env.hpp"

namespace {

using graphhd::bench::env_size;

/// Part 1: batch encode/predict scaling over the thread-pool size.
/// Returns false when any thread count predicts differently from 1 thread
/// (which would be a determinism bug in src/parallel/).
bool run_thread_sweep() {
  using Clock = std::chrono::steady_clock;
  namespace parallel = graphhd::parallel;

  graphhd::data::ScalabilityConfig spec;
  spec.num_vertices = env_size("GRAPHHD_SWEEP_VERTICES", 300);
  const auto dataset = graphhd::data::make_scalability_dataset(spec, /*seed=*/0xf194ULL);

  std::vector<std::size_t> sweep = {1, 2, 4};
  if (const std::size_t configured = parallel::configured_threads();
      configured != 1 && configured != 2 && configured != 4) {
    sweep.push_back(configured);
  }

  const graphhd::core::GraphHdConfig config;

  std::printf("== batch encode/predict thread sweep (n=%zu, %zu graphs) ==\n",
              spec.num_vertices, dataset.size());
  std::printf("%8s %12s %12s %10s %10s\n", "threads", "fit_s", "predict_s", "speedup",
              "identical");

  bool all_identical = true;
  std::vector<std::size_t> reference;
  double serial_seconds = 0.0;
  for (const std::size_t threads : sweep) {
    parallel::set_threads(threads);
    graphhd::core::GraphHd classifier(config);

    const auto fit_start = Clock::now();
    classifier.fit(dataset);
    const double fit_seconds = std::chrono::duration<double>(Clock::now() - fit_start).count();

    const auto predict_start = Clock::now();
    const auto predictions = classifier.predict_batch(dataset);
    const double predict_seconds =
        std::chrono::duration<double>(Clock::now() - predict_start).count();

    const double total = fit_seconds + predict_seconds;
    bool identical = true;
    if (threads == 1) {
      reference = predictions;
      serial_seconds = total;
    } else {
      identical = predictions == reference;
      all_identical = all_identical && identical;
    }
    std::printf("%8zu %12.4f %12.4f %9.2fx %10s\n", threads, fit_seconds, predict_seconds,
                serial_seconds > 0.0 ? serial_seconds / total : 1.0,
                identical ? "yes" : "NO");
  }
  // Part 2 reproduces the paper's *serial* timing protocol: the baselines
  // are single-threaded, so GraphHD must be too or the quoted speedup
  // ratios would be inflated by core count.  An explicit GRAPHHD_THREADS
  // is honoured for deliberate experiments.
  parallel::set_threads(graphhd::core::runtime::env_raw("GRAPHHD_THREADS") != nullptr ? 0 : 1);
  if (!all_identical) {
    std::fprintf(stderr, "fig4: FAIL — parallel predictions diverged from 1-thread run\n");
  }
  return all_identical;
}

}  // namespace

int main() {
  using namespace graphhd::eval;

  if (!run_thread_sweep()) return 1;
  if (graphhd::core::runtime::env_raw("GRAPHHD_SKIP_FIGURE") != nullptr) return 0;

  auto config = config_from_env(/*default_scale=*/1.0, /*default_reps=*/1,
                                /*default_epochs=*/40);
  config.cv.folds = 10;  // paper protocol

  const std::size_t max_vertices = env_size("GRAPHHD_MAX_VERTICES", 980);
  const std::size_t step = env_size("GRAPHHD_SIZE_STEP", 320);
  const auto sizes = graphhd::data::scalability_sizes(max_vertices, step);

  std::fprintf(stderr, "fig4: sizes up to %zu (step %zu), reps=%zu, gin_epochs=%zu\n",
               max_vertices, step, config.cv.repetitions, config.gin_max_epochs);

  const auto points = run_figure4(config, sizes);
  std::fputs(format_figure4(points).c_str(), stdout);
  std::printf("\n== CSV ==\n%s", to_csv(points).c_str());
  return 0;
}
