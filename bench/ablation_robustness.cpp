/// \file ablation_robustness.cpp
/// Ablation A4: the robustness claim, measured.
///
/// Sections I and VI assert GraphHD is "inherently more robust to noise"
/// thanks to the holographic representation.  This bench quantifies it two
/// ways on the PROTEINS replica (a benchmark GraphHD classifies at ~97%,
/// so degradation curves are visible above the noise floor):
///   1. query corruption — flip a fraction of the encoded test graph's
///      components before classification;
///   2. model corruption — flip a fraction of every *class vector*'s
///      components (simulating faulty low-power memory), then classify
///      clean queries through the associative-memory query.
/// Reported: accuracy vs corruption level, plus the packed model footprint.
///
/// Environment: GRAPHHD_BENCH_SCALE (default 0.5).

#include <cstdio>
#include <vector>

#include "core/model.hpp"
#include "data/synthetic.hpp"
#include "eval/experiment.hpp"

int main() {
  using namespace graphhd;

  const auto env = eval::config_from_env(/*default_scale=*/0.5, 1, 1);
  const auto dataset =
      data::load_or_synthesize("data", "PROTEINS", /*seed=*/2022, env.dataset_scale);

  hdc::Rng split_rng(0xab1e);
  const auto split = data::stratified_split(dataset, 0.8, split_rng);
  const auto train = dataset.subset(split.train);
  const auto test = dataset.subset(split.test);

  core::GraphHdConfig config;  // paper defaults, d = 10,000
  core::GraphHdModel model(config, dataset.num_classes());
  model.fit(train);

  // Pre-encode the test set once; corruption is applied to the encodings.
  std::vector<hdc::PackedHypervector> encoded;
  std::vector<std::size_t> labels;
  encoded.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    encoded.push_back(model.encoder().encode_packed(test.graph(i)));
    labels.push_back(test.label(i));
  }

  std::printf("Robustness ablation on %s (%zu train / %zu test graphs, d=%zu)\n",
              dataset.name().c_str(), train.size(), test.size(), config.dimension);

  const std::vector<double> fractions{0.0, 0.05, 0.10, 0.20, 0.30, 0.40};

  std::printf("\n1. Query corruption (flipped fraction of the query hypervector):\n");
  std::printf("%10s %12s\n", "flipped", "accuracy");
  hdc::Rng noise_rng(0x4015e);
  for (const double fraction : fractions) {
    std::size_t hits = 0;
    const auto flips =
        static_cast<std::size_t>(fraction * static_cast<double>(config.dimension));
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const auto noisy = encoded[i].with_noise(flips, noise_rng);
      hits += model.predict_encoded(noisy).label == labels[i] ? 1 : 0;
    }
    std::printf("%9.0f%% %11.1f%%\n", 100.0 * fraction,
                100.0 * static_cast<double>(hits) / static_cast<double>(encoded.size()));
  }

  std::printf("\n2. Model corruption (flipped fraction of every class vector):\n");
  std::printf("%10s %12s\n", "flipped", "accuracy");
  for (const double fraction : fractions) {
    // Corrupt a copy of the class vectors, then query it (the deployed
    // XOR + popcount op).
    hdc::AssociativeMemory corrupted(config.dimension, model.num_classes(), config.metric,
                                     /*quantized=*/true);
    hdc::Rng corrupt_rng(0xbadbeef + static_cast<std::uint64_t>(1e6 * fraction));
    const auto flips =
        static_cast<std::size_t>(fraction * static_cast<double>(config.dimension));
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      corrupted.add(c, model.memory().packed_class_vector(c).with_noise(flips, corrupt_rng));
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      hits += corrupted.query(encoded[i]).best_class == labels[i] ? 1 : 0;
    }
    std::printf("%9.0f%% %11.1f%%\n", 100.0 * fraction,
                100.0 * static_cast<double>(hits) / static_cast<double>(encoded.size()));
  }

  std::printf("\npacked model footprint: %zu bytes (%zu classes x %zu-bit vectors)\n",
              model.snapshot()->footprint_bytes(), model.num_classes(), config.dimension);
  return 0;
}
