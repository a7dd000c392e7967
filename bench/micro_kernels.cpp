/// \file micro_kernels.cpp
/// Kernel-layer micro-benchmark and equivalence gate.
///
/// For every compiled-in, CPU-supported kernel variant this harness
///   1. re-checks bit-identical equivalence against the scalar reference on
///      randomized inputs (exit 1 on any mismatch — CI runs this as a gate),
///   2. times the dispatched hot loops: batched popcount-Hamming one-vs-all
///      query, packed XOR-bind and the bitslice full adder.
///
/// Output is one schema-stable JSON object on stdout
/// ("graphhd-bench-kernels/v1" — see README "Performance"); progress goes to
/// stderr.  CI archives the JSON as BENCH_kernels.json and feeds it to
/// bench/check_perf.py against bench/baselines/kernels.json.
///
/// Environment knobs:
///   GRAPHHD_MICRO_DIM                  hypervector dimension (default 10000)
///   GRAPHHD_MICRO_ROWS                 class rows per batched query (default 16)
///   GRAPHHD_MICRO_MIN_MS               min timed window per op (default 200)
///   GRAPHHD_MIN_HAMMING_BATCH_SPEEDUP  fail (exit 1) when the best SIMD
///                                      variant's batched-Hamming speedup over
///                                      scalar falls below this factor; ignored
///                                      when no SIMD variant is supported
///                                      (equivalence-only on such runners).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/random_inputs.hpp"
#include "hdc/random.hpp"
#include "support/env.hpp"

namespace {

namespace kernels = graphhd::hdc::kernels;
using graphhd::hdc::Rng;
using kernels::KernelOps;
using kernels::random_words;
using Clock = std::chrono::steady_clock;

using graphhd::bench::env_double;
using graphhd::bench::env_size;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls `op` repeatedly, doubling the batch until the timed window exceeds
/// `min_seconds`, and returns calls per second.
template <typename Op>
double time_op(double min_seconds, Op&& op) {
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) op();
    const double elapsed = seconds_since(start);
    if (elapsed >= min_seconds) return static_cast<double>(reps) / elapsed;
    reps = elapsed <= 0.0 ? reps * 8 : reps * 2;
  }
}

/// Keeps results observable so the timed loops cannot be optimized away
/// (plain assignment: compound ops on volatile are deprecated in C++20).
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t value) { g_sink = g_sink + value; }

struct VariantTimings {
  double hamming_batch_qps = 0.0;  ///< batched one-vs-all queries / s
  double xor_gbps = 0.0;           ///< packed XOR-bind, GB/s of output
  double full_adder_gbps = 0.0;    ///< bitslice full adder, GB/s of plane
};

}  // namespace

int main() {
  const std::size_t dimension = env_size("GRAPHHD_MICRO_DIM", 10000);
  const std::size_t rows = env_size("GRAPHHD_MICRO_ROWS", 16);
  const double min_seconds = static_cast<double>(env_size("GRAPHHD_MICRO_MIN_MS", 200)) / 1000.0;
  const double min_speedup = env_double("GRAPHHD_MIN_HAMMING_BATCH_SPEEDUP", 0.0);
  const std::size_t num_words = (dimension + 63) / 64;

  Rng rng(0xbe7c4);
  const auto query = random_words(dimension, rng);
  std::vector<std::vector<std::uint64_t>> row_storage;
  std::vector<const std::uint64_t*> row_ptrs;
  for (std::size_t r = 0; r < rows; ++r) {
    row_storage.push_back(random_words(dimension, rng));
    row_ptrs.push_back(row_storage.back().data());
  }
  const auto words_b = random_words(dimension, rng);
  const auto words_c = random_words(dimension, rng);

  const KernelOps& scalar = kernels::scalar();

  // --- equivalence gate: every supported variant, every table entry point,
  // vs the scalar reference (bit-exact; randomized inputs incl. a tail).
  bool equivalence_ok = true;
  std::vector<std::size_t> ref_distances(rows);
  scalar.hamming_batch(query.data(), row_ptrs.data(), rows, num_words, ref_distances.data());
  std::vector<std::uint64_t> ref_xor(num_words);
  scalar.xor_words(ref_xor.data(), query.data(), words_b.data(), num_words);
  const std::size_t ref_hamming = scalar.hamming_words(query.data(), words_b.data(), num_words);
  std::vector<std::uint64_t> ref_plane = words_c;
  std::vector<std::uint64_t> ref_carry(num_words);
  scalar.full_adder(ref_plane.data(), query.data(), words_b.data(), ref_carry.data(), num_words);
  // Weights 3, -2 and 1: an even total, so some counters are zero and the
  // threshold's `zero` mask is compared with set bits in it.
  std::vector<std::int32_t> ref_counts(dimension, 0);
  scalar.accumulate_packed(ref_counts.data(), query.data(), dimension, 3);
  scalar.accumulate_packed(ref_counts.data(), words_b.data(), dimension, -2);
  scalar.accumulate_packed(ref_counts.data(), words_c.data(), dimension, 1);
  std::vector<std::uint64_t> ref_neg(num_words, 0), ref_zero(num_words, 0);
  scalar.threshold_counters(ref_counts.data(), dimension, ref_neg.data(), ref_zero.data());
  std::vector<const KernelOps*> supported;
  for (const KernelOps* ops : kernels::compiled_variants()) {
    if (!ops->supported()) {
      std::fprintf(stderr, "micro_kernels: %s compiled in but not supported by this CPU\n",
                   ops->name);
      continue;
    }
    supported.push_back(ops);
    std::vector<std::size_t> distances(rows);
    ops->hamming_batch(query.data(), row_ptrs.data(), rows, num_words, distances.data());
    std::vector<std::uint64_t> xored(num_words);
    ops->xor_words(xored.data(), query.data(), words_b.data(), num_words);
    std::vector<std::uint64_t> plane = words_c;
    std::vector<std::uint64_t> carry(num_words);
    ops->full_adder(plane.data(), query.data(), words_b.data(), carry.data(), num_words);
    std::vector<std::int32_t> counts(dimension, 0);
    ops->accumulate_packed(counts.data(), query.data(), dimension, 3);
    ops->accumulate_packed(counts.data(), words_b.data(), dimension, -2);
    ops->accumulate_packed(counts.data(), words_c.data(), dimension, 1);
    std::vector<std::uint64_t> neg(num_words, 0), zero(num_words, 0);
    ops->threshold_counters(counts.data(), dimension, neg.data(), zero.data());
    if (distances != ref_distances || xored != ref_xor ||
        ops->hamming_words(query.data(), words_b.data(), num_words) != ref_hamming ||
        plane != ref_plane || carry != ref_carry || counts != ref_counts || neg != ref_neg ||
        zero != ref_zero) {
      std::fprintf(stderr, "micro_kernels: FAIL — %s diverges from scalar reference\n", ops->name);
      equivalence_ok = false;
    }
  }

  // --- timings per supported variant.
  std::vector<VariantTimings> timings(supported.size());
  std::vector<std::uint64_t> scratch_out(num_words);
  std::vector<std::uint64_t> scratch_plane(num_words);
  std::vector<std::uint64_t> scratch_carry(num_words);
  std::vector<std::size_t> scratch_distances(rows);
  const double word_bytes = static_cast<double>(num_words) * 8.0;
  for (std::size_t v = 0; v < supported.size(); ++v) {
    const KernelOps& ops = *supported[v];
    std::fprintf(stderr, "micro_kernels: timing %s (d=%zu, %zu rows)\n", ops.name, dimension,
                 rows);
    timings[v].hamming_batch_qps = time_op(min_seconds, [&] {
      ops.hamming_batch(query.data(), row_ptrs.data(), rows, num_words,
                        scratch_distances.data());
      sink(scratch_distances[0]);
    });
    timings[v].xor_gbps = word_bytes * 1e-9 * time_op(min_seconds, [&] {
      ops.xor_words(scratch_out.data(), query.data(), words_b.data(), num_words);
      sink(scratch_out[0]);
    });
    scratch_plane = words_c;
    timings[v].full_adder_gbps = word_bytes * 1e-9 * time_op(min_seconds, [&] {
      ops.full_adder(scratch_plane.data(), query.data(), words_b.data(), scratch_carry.data(),
                     num_words);
      sink(scratch_carry[0]);
    });
  }

  // --- best SIMD variant (highest priority non-scalar) vs scalar speedups.
  const KernelOps* best_simd = nullptr;
  const VariantTimings* best_timings = nullptr;
  const VariantTimings* scalar_timings = nullptr;
  for (std::size_t v = 0; v < supported.size(); ++v) {
    if (std::string(supported[v]->name) == "scalar") {
      scalar_timings = &timings[v];
    } else if (best_simd == nullptr || supported[v]->priority > best_simd->priority) {
      best_simd = supported[v];
      best_timings = &timings[v];
    }
  }

  std::printf("{\n");
  std::printf("  \"schema\": \"graphhd-bench-kernels/v1\",\n");
  std::printf("  \"dimension\": %zu,\n", dimension);
  std::printf("  \"rows\": %zu,\n", rows);
  std::printf("  \"active_kernel\": \"%s\",\n", kernels::active().name);
  std::printf("  \"equivalence_ok\": %s,\n", equivalence_ok ? "true" : "false");
  std::printf("  \"variants\": {\n");
  for (std::size_t v = 0; v < supported.size(); ++v) {
    std::printf("    \"%s\": {\"hamming_batch_qps\": %.1f, \"xor_gbps\": %.3f, "
                "\"full_adder_gbps\": %.3f}%s\n",
                supported[v]->name, timings[v].hamming_batch_qps, timings[v].xor_gbps,
                timings[v].full_adder_gbps, v + 1 < supported.size() ? "," : "");
  }
  std::printf("  },\n");
  if (best_simd != nullptr && scalar_timings != nullptr) {
    std::printf("  \"best_simd\": \"%s\",\n", best_simd->name);
    std::printf("  \"speedup_vs_scalar\": {\"hamming_batch\": %.3f, \"xor\": %.3f, "
                "\"full_adder\": %.3f}\n",
                best_timings->hamming_batch_qps / scalar_timings->hamming_batch_qps,
                best_timings->xor_gbps / scalar_timings->xor_gbps,
                best_timings->full_adder_gbps / scalar_timings->full_adder_gbps);
  } else {
    std::printf("  \"best_simd\": null,\n");
    std::printf("  \"speedup_vs_scalar\": null\n");
  }
  std::printf("}\n");

  if (!equivalence_ok) return 1;
  if (min_speedup > 0.0 && best_simd != nullptr && scalar_timings != nullptr) {
    const double speedup = best_timings->hamming_batch_qps / scalar_timings->hamming_batch_qps;
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "micro_kernels: FAIL — %s batched-Hamming speedup %.2fx below required %.2fx\n",
                   best_simd->name, speedup, min_speedup);
      return 1;
    }
  }
  return 0;
}
