/// \file micro_backend.cpp
/// Dense reference vs packed trainer micro-benchmark — the efficiency half
/// of the paper, measured end to end.
///
/// The "dense" side is the paper-exact bipolar reference of the test
/// suites (tests/support/dense_reference.hpp): DenseEncoder encodes on ±1
/// components and a DenseMemory bundles and queries them with scalar loops.
/// The "packed" side is the trainer's one code path: a GraphHdModel (packed
/// encoding, signed-counter class memory, packed queries on the dispatched
/// SIMD kernels).  The harness *verifies the two agree bit for bit* —
/// encodings, counters, labels and scores; exit code 1 otherwise, CI runs
/// this as a gate — then times:
///   * encode throughput  — graphs/s through DenseEncoder::encode vs
///     GraphHdEncoder::encode_packed, timed in alternating rounds of one
///     pass per side; the speedup is the median per-round ratio (a packed
///     pass lasts ~2 ms, too short to time on its own);
///   * query  throughput  — class-memory queries/s on pre-encoded vectors
///     (bipolar DenseMemory vs packed AssociativeMemory query), the
///     associative-memory op the paper's hardware argument is about.
///
/// Output is a single JSON object on stdout (schema "graphhd-bench-backend/v1",
/// progress goes to stderr) so CI can archive it as BENCH_backend.json and gate
/// it against bench/baselines/backend.json via bench/check_perf.py.
///
/// Environment knobs:
///   GRAPHHD_MICRO_DIM          hypervector dimension   (default 10000)
///   GRAPHHD_MICRO_VERTICES     vertices per graph      (default 80)
///   GRAPHHD_MICRO_GRAPHS       graphs in the dataset   (default 40)
///   GRAPHHD_MICRO_ENCODE_REPS  least timed encode rounds   (default 5; the
///                              rounds also last at least 1 s in total)
///   GRAPHHD_MICRO_QUERY_REPS   timed query passes      (default 200)
///   GRAPHHD_MIN_QUERY_SPEEDUP  fail (exit 1) when the packed query speedup
///                              falls below this factor (default 0 = report
///                              only; the CI perf-baseline job gates via
///                              bench/check_perf.py + bench/baselines/backend.json
///                              instead, whose description gives the floor)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/model.hpp"
#include "data/scalability.hpp"
#include "../tests/support/dense_reference.hpp"
#include "hdc/kernels/kernels.hpp"
#include "support/env.hpp"

namespace {

using Clock = std::chrono::steady_clock;

using graphhd::bench::env_double;
using graphhd::bench::env_size;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  using namespace graphhd;

  const std::size_t dimension = env_size("GRAPHHD_MICRO_DIM", 10000);
  const std::size_t vertices = env_size("GRAPHHD_MICRO_VERTICES", 80);
  const std::size_t graphs = env_size("GRAPHHD_MICRO_GRAPHS", 40);
  const std::size_t encode_reps =
      std::max<std::size_t>(1, env_size("GRAPHHD_MICRO_ENCODE_REPS", 5));
  const std::size_t query_reps = env_size("GRAPHHD_MICRO_QUERY_REPS", 200);
  const double min_speedup = env_double("GRAPHHD_MIN_QUERY_SPEEDUP", 0.0);

  data::ScalabilityConfig spec;
  spec.num_vertices = vertices;
  spec.num_graphs = graphs;
  const auto dataset = data::make_scalability_dataset(spec, /*seed=*/0xbac40ULL);

  core::GraphHdConfig config;
  config.dimension = dimension;

  std::fprintf(stderr, "micro_backend: d=%zu, %zu graphs of %zu vertices\n", dimension,
               dataset.size(), vertices);

  core::GraphHdModel model(config, 2);
  model.fit(dataset);

  // The dense reference: bipolar encodings bundled into a bipolar memory.
  testsupport::DenseEncoder reference_encoder(config);
  testsupport::DenseMemory reference(dimension, 2, config.metric, config.quantized_model);
  std::vector<hdc::Hypervector> dense_encoded(dataset.size());
  std::vector<hdc::PackedHypervector> packed_encoded(dataset.size());
  bool identical = true;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    dense_encoded[i] = reference_encoder.encode(dataset.graph(i));
    packed_encoded[i] = model.encoder().encode_packed(dataset.graph(i));
    identical = identical && packed_encoded[i].to_bipolar() == dense_encoded[i];
    reference.add(dataset.label(i), dense_encoded[i]);
  }

  // --- correctness gate: the trainer must be a faithful fast path.
  for (std::size_t c = 0; c < 2; ++c) {
    const auto expected = reference.accumulator(c).counts();
    const auto actual = model.memory().accumulator(c).counts();
    identical = identical && std::equal(expected.begin(), expected.end(), actual.begin(),
                                        actual.end());
  }
  const auto predictions = model.predict_batch(dataset);
  for (std::size_t i = 0; identical && i < dataset.size(); ++i) {
    const auto expected = reference.query(dense_encoded[i]);
    identical = predictions[i].label == expected.best_class &&
                predictions[i].score == expected.best_similarity;
  }
  if (!identical) {
    std::fprintf(stderr, "micro_backend: FAIL — trainer diverges from the dense reference\n");
  }

  // --- encode throughput, timed in rounds: one pass over the dataset per
  // side, dense then packed, so both sides of a round see the same host
  // load.  Rounds repeat until both floors (rounds and one second) are met;
  // the readings are the median pass rates and the median per-round ratio,
  // so a slow or cold round cannot move them.  Fresh encoders: the first
  // round warms both caches.
  constexpr double kMinEncodeSeconds = 1.0;
  testsupport::DenseEncoder dense_encoder(config);
  core::GraphHdEncoder packed_encoder(config);
  const auto pass_rate = [&](auto&& encode) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < dataset.size(); ++i) (void)encode(dataset.graph(i));
    return static_cast<double>(dataset.size()) / seconds_since(start);
  };
  std::vector<double> dense_rates;
  std::vector<double> packed_rates;
  std::vector<double> ratios;
  const auto encode_start = Clock::now();
  while (ratios.size() < encode_reps || seconds_since(encode_start) < kMinEncodeSeconds) {
    dense_rates.push_back(
        pass_rate([&](const graph::Graph& g) { return dense_encoder.encode(g); }));
    packed_rates.push_back(
        pass_rate([&](const graph::Graph& g) { return packed_encoder.encode_packed(g); }));
    ratios.push_back(packed_rates.back() / dense_rates.back());
  }
  const auto median = [](std::vector<double> values) {
    const auto middle = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), middle, values.end());
    return *middle;
  };
  const double dense_encode_gps = median(dense_rates);
  const double packed_encode_gps = median(packed_rates);
  const double encode_speedup = median(ratios);

  // --- query throughput on pre-encoded vectors (the paper's inference op),
  // with both class-vector caches built outside the timed region.
  (void)reference.class_vector(0);
  model.memory().finalize();

  const auto start_dense = Clock::now();
  std::size_t dense_sink = 0;
  for (std::size_t rep = 0; rep < query_reps; ++rep) {
    for (const auto& hv : dense_encoded) dense_sink += reference.query(hv).best_class;
  }
  const double dense_query_seconds = seconds_since(start_dense);

  const auto start_packed = Clock::now();
  std::size_t packed_sink = 0;
  for (std::size_t rep = 0; rep < query_reps; ++rep) {
    for (const auto& hv : packed_encoded) packed_sink += model.memory().query(hv).best_class;
  }
  const double packed_query_seconds = seconds_since(start_packed);

  if (dense_sink != packed_sink) {
    std::fprintf(stderr, "micro_backend: FAIL — query argmax sums diverge (%zu vs %zu)\n",
                 dense_sink, packed_sink);
    identical = false;
  }

  const double total_queries = static_cast<double>(query_reps * dataset.size());
  const double dense_qps = total_queries / dense_query_seconds;
  const double packed_qps = total_queries / packed_query_seconds;
  const double query_speedup = packed_qps / dense_qps;
  const std::size_t dense_footprint =
      2 * config.vectors_per_class * dimension;  // int8 per component.
  const std::size_t packed_footprint = model.snapshot()->footprint_bytes();

  std::printf("{\n");
  std::printf("  \"schema\": \"graphhd-bench-backend/v1\",\n");
  std::printf("  \"kernel\": \"%s\",\n", graphhd::hdc::kernels::active().name);
  std::printf("  \"dimension\": %zu,\n", dimension);
  std::printf("  \"graphs\": %zu,\n", dataset.size());
  std::printf("  \"vertices_per_graph\": %zu,\n", vertices);
  std::printf("  \"predictions_identical\": %s,\n", identical ? "true" : "false");
  std::printf("  \"encode\": {\"dense_graphs_per_s\": %.1f, \"packed_graphs_per_s\": %.1f, "
              "\"speedup\": %.3f, \"rounds\": %zu},\n",
              dense_encode_gps, packed_encode_gps, encode_speedup, ratios.size());
  std::printf("  \"query\": {\"dense_queries_per_s\": %.1f, \"packed_queries_per_s\": %.1f, "
              "\"speedup\": %.3f},\n",
              dense_qps, packed_qps, query_speedup);
  std::printf("  \"class_memory_bytes\": {\"dense\": %zu, \"packed\": %zu}\n", dense_footprint,
              packed_footprint);
  std::printf("}\n");

  if (!identical) return 1;
  if (min_speedup > 0.0 && query_speedup < min_speedup) {
    std::fprintf(stderr, "micro_backend: FAIL — packed query speedup %.2fx below required %.2fx\n",
                 query_speedup, min_speedup);
    return 1;
  }
  return 0;
}
