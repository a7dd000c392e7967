/// \file fig3_main_comparison.cpp
/// Regenerates **Figure 3** of the paper — all three panels:
///   left:   accuracy of GraphHD vs 1-WL, WL-OA, GIN-ε, GIN-ε-JK on the six
///           TUDataset benchmarks;
///   middle: training time per fold (the paper plots it on a log axis);
///   right:  inference time per graph (log axis);
/// plus the headline speedup ratios from the abstract/Section VI (14.6x
/// training, 2.0x inference on average; DD 12.1x vs GNNs, 24.6x vs kernels;
/// NCI1 77.1x vs kernels).
///
/// Environment knobs (read by eval::config_from_env):
///   GRAPHHD_BENCH_SCALE  dataset-size scale, default 0.12 for a minutes-
///                        scale run; 1.0 = paper-size datasets
///   GRAPHHD_REPS         CV repetitions (paper: 3; default 1)
///   GRAPHHD_GIN_EPOCHS   GIN max epochs (default 25)
///
/// Expected *shape* (absolute numbers differ from the paper's hardware and
/// real chemistry data): GraphHD trains and infers fastest on every
/// dataset, with the largest training gaps on DD (big graphs) and NCI1
/// (big dataset, where the kernels' quadratic Gram cost dominates).

#include <cstdio>

#include "eval/experiment.hpp"
#include "eval/report.hpp"

int main() {
  using namespace graphhd::eval;

  auto config = config_from_env(/*default_scale=*/0.12, /*default_reps=*/1,
                                /*default_epochs=*/60);
  std::fprintf(stderr,
               "fig3: scale=%.2f reps=%zu gin_epochs=%zu (set GRAPHHD_BENCH_SCALE=1 "
               "GRAPHHD_REPS=3 for the paper protocol)\n",
               config.dataset_scale, config.cv.repetitions, config.gin_max_epochs);

  const auto methods = paper_method_suite(config.gin_max_epochs);
  const auto results = run_figure3(config, methods);

  std::fputs(format_figure3(results, Figure3Panel::kAccuracy).c_str(), stdout);
  std::printf("\n");
  std::fputs(format_figure3(results, Figure3Panel::kTrainingTime).c_str(), stdout);
  std::printf("\n");
  std::fputs(format_figure3(results, Figure3Panel::kInferenceTime).c_str(), stdout);
  std::printf("\n");
  std::fputs(format_speedups(results).c_str(), stdout);
  std::printf("\n== CSV ==\n%s", to_csv(results).c_str());
  return 0;
}
