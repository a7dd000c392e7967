#include "core/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace graphhd::core::runtime {

namespace {

// The registry.  Sorted by name (checked by tests/test_runtime.cpp); every
// runtime GRAPHHD_* variable read anywhere in the tree must have a row here
// or the typed accessors refuse it.  The build_time rows are CMake options
// listed only so an exported one is not flagged as a typo.
constexpr EnvKnob kKnobs[] = {
    {"GRAPHHD_BENCH_SCALE", KnobKind::kDouble, "1.0", "eval/experiment",
     "fraction of each dataset the paper-table experiments use, in (0, 1]", false},
    {"GRAPHHD_BUILD_BENCH", KnobKind::kString, "ON", "build (cmake)",
     "CMake option: build the benchmark harnesses", true},
    {"GRAPHHD_BUILD_EXAMPLES", KnobKind::kString, "ON", "build (cmake)",
     "CMake option: build the example programs", true},
    {"GRAPHHD_BUILD_TESTS", KnobKind::kString, "ON", "build (cmake)",
     "CMake option: build the GoogleTest suites", true},
    {"GRAPHHD_COLDSTART_CLASSES", KnobKind::kSize, "8", "bench/micro_coldstart",
     "class count of the cold-start artifact", false},
    {"GRAPHHD_COLDSTART_DIM", KnobKind::kSize, "10000", "bench/micro_coldstart",
     "hypervector dimension of the cold-start artifact", false},
    {"GRAPHHD_COLDSTART_REPS", KnobKind::kSize, "7", "bench/micro_coldstart",
     "repetitions per load mode (median reported)", false},
    {"GRAPHHD_EVALSTRESS_CHUNK", KnobKind::kSize, "8", "bench/stress_eval",
     "stream chunk size of the CV stress run", false},
    {"GRAPHHD_EVALSTRESS_DIM", KnobKind::kSize, "4096", "bench/stress_eval",
     "hypervector dimension of the CV stress run", false},
    {"GRAPHHD_EVALSTRESS_EDGES", KnobKind::kSize, "1000000", "bench/stress_eval",
     "total R-MAT edges of the CV stress run", false},
    {"GRAPHHD_EVALSTRESS_FOLDS", KnobKind::kSize, "3", "bench/stress_eval",
     "fold count of the CV stress run", false},
    {"GRAPHHD_EVALSTRESS_GRAPH_EDGES", KnobKind::kSize, "16384", "bench/stress_eval",
     "edges per generated graph in the CV stress run", false},
    {"GRAPHHD_EVALSTRESS_SKIP_MATERIALIZED", KnobKind::kSize, "0", "bench/stress_eval",
     "nonzero skips the materialized-equivalence cross-check", false},
    {"GRAPHHD_GIN_EPOCHS", KnobKind::kSize, "100", "eval/experiment",
     "max training epochs of the GIN baseline", false},
    {"GRAPHHD_KERNEL", KnobKind::kString, "auto", "hdc/kernels",
     "SIMD kernel variant: auto|scalar|avx2|avx512|neon", false},
    {"GRAPHHD_MAX_VERTICES", KnobKind::kSize, "980", "bench/fig4_scalability",
     "largest graph size of the Figure 4 sweep", false},
    {"GRAPHHD_MICRO_DIM", KnobKind::kSize, "10000", "bench/micro_*",
     "hypervector dimension of the micro benchmarks", false},
    {"GRAPHHD_MICRO_ENCODE_REPS", KnobKind::kSize, "5", "bench/micro_backend",
     "least timed encode rounds, one pass per backend each (median ratio reported)", false},
    {"GRAPHHD_MICRO_GRAPHS", KnobKind::kSize, "40", "bench/micro_backend",
     "dataset size of the backend micro benchmark", false},
    {"GRAPHHD_MICRO_MIN_MS", KnobKind::kSize, "200", "bench/micro_kernels",
     "minimum timed milliseconds per kernel measurement", false},
    {"GRAPHHD_MICRO_QUERY_REPS", KnobKind::kSize, "200", "bench/micro_backend",
     "query repetitions per backend", false},
    {"GRAPHHD_MICRO_ROWS", KnobKind::kSize, "16", "bench/micro_kernels",
     "class-memory rows of the batched-kernel micro benchmark", false},
    {"GRAPHHD_MICRO_VERTICES", KnobKind::kSize, "80", "bench/micro_backend",
     "vertices per generated graph in the backend micro benchmark", false},
    {"GRAPHHD_MIN_HAMMING_BATCH_SPEEDUP", KnobKind::kDouble, "0 (off)", "bench/micro_kernels",
     "self-gate: minimum batched-vs-scalar Hamming speedup", false},
    {"GRAPHHD_MIN_QUERY_SPEEDUP", KnobKind::kDouble, "0 (off)", "bench/micro_backend",
     "self-gate: minimum packed-vs-dense query speedup", false},
    {"GRAPHHD_NET_CLASSES", KnobKind::kSize, "16", "bench/stress_net",
     "class count of the served model in the network stress run", false},
    {"GRAPHHD_NET_DIM", KnobKind::kSize, "2048", "bench/stress_net",
     "hypervector dimension of the network stress run", false},
    {"GRAPHHD_NET_FUZZ_CASES", KnobKind::kSize, "300", "bench/stress_net",
     "malformed-frame fuzz cases of the network stress run", false},
    {"GRAPHHD_NET_PORT", KnobKind::kSize, "0 (ephemeral)", "serve/net + cli serve",
     "default TCP port of `graphhd_cli serve` (0 = kernel-assigned)", false},
    {"GRAPHHD_NET_QUERIES", KnobKind::kSize, "256", "bench/stress_net",
     "distinct pre-encoded queries cycled by the network load clients", false},
    {"GRAPHHD_NET_REQUESTS", KnobKind::kSize, "8000", "bench/stress_net",
     "requests per connection per phase in the network stress run", false},
    {"GRAPHHD_NET_TIMEOUT_MS", KnobKind::kSize, "5000", "serve/net + cli",
     "connect/read timeout (ms) of the TCP client paths", false},
    {"GRAPHHD_NET_WINDOW", KnobKind::kSize, "32", "bench/stress_net",
     "pipelined requests in flight per connection in the network stress run", false},
    {"GRAPHHD_PROPTEST_CASE", KnobKind::kSize, "0 (all)", "tests/support/proptest",
     "replay exactly one property-test case index", false},
    {"GRAPHHD_PROPTEST_CASES", KnobKind::kSize, "100", "tests/support/proptest",
     "property-test case budget as a percentage of each suite's default", false},
    {"GRAPHHD_PROPTEST_SEED", KnobKind::kSize, "per-property", "tests/support/proptest",
     "replay seed printed by a failing property-test case", false},
    {"GRAPHHD_REPS", KnobKind::kSize, "paper protocol", "eval/experiment",
     "cross-validation repetitions of the paper-table experiments", false},
    {"GRAPHHD_SANITIZE", KnobKind::kString, "off", "build (cmake)",
     "CMake option: comma-separated sanitizers (address,undefined)", true},
    {"GRAPHHD_SERVE_BATCH", KnobKind::kSize, "128", "bench/stress_serve",
     "max coalesced batch size of the serving stress run", false},
    {"GRAPHHD_SERVE_CLASSES", KnobKind::kSize, "16", "bench/stress_serve",
     "class count of the served model", false},
    {"GRAPHHD_SERVE_DIM", KnobKind::kSize, "4096", "bench/stress_serve",
     "hypervector dimension of the served model", false},
    {"GRAPHHD_SERVE_QUERIES", KnobKind::kSize, "256", "bench/stress_serve",
     "distinct pre-encoded queries cycled by the load clients", false},
    {"GRAPHHD_SERVE_REQUESTS", KnobKind::kSize, "16000", "bench/stress_serve",
     "requests per client per phase", false},
    {"GRAPHHD_SERVE_WORKERS", KnobKind::kSize, "1", "bench/stress_serve",
     "server worker threads", false},
    {"GRAPHHD_SHARD_CHUNK", KnobKind::kSize, "8", "bench/stress_shard",
     "stream chunk size of the sharded-training stress run", false},
    {"GRAPHHD_SHARD_DIM", KnobKind::kSize, "2048", "bench/stress_shard",
     "hypervector dimension of the sharded-training stress run", false},
    {"GRAPHHD_SHARD_EDGES", KnobKind::kSize, "10000000", "bench/stress_shard",
     "total R-MAT edges of the sharded-training stress run", false},
    {"GRAPHHD_SHARD_GRAPH_EDGES", KnobKind::kSize, "65536", "bench/stress_shard",
     "edges per generated graph in the sharded-training stress run", false},
    {"GRAPHHD_SHARD_RSS_MB", KnobKind::kSize, "768", "bench/stress_shard",
     "peak-RSS ceiling (MB) of the sharded-training stress run", false},
    {"GRAPHHD_SHARD_SLACK", KnobKind::kDouble, "1.5", "bench/stress_shard",
     "wall-clock gate: parallel-workers run must finish within serial x slack", false},
    {"GRAPHHD_SHARD_WORKERS", KnobKind::kSize, "4", "bench/stress_shard",
     "shard-worker threads of the parallel-workers stress phase", false},
    {"GRAPHHD_SIMD_KERNELS", KnobKind::kString, "ON", "build (cmake)",
     "CMake option: compile the AVX2/AVX-512 kernel variants", true},
    {"GRAPHHD_SIZE_STEP", KnobKind::kSize, "320", "bench/fig4_scalability",
     "graph-size step of the Figure 4 sweep", false},
    {"GRAPHHD_SKIP_FIGURE", KnobKind::kString, "unset", "bench/fig4_scalability",
     "set (any value) to run only the thread sweep, not the figure", false},
    {"GRAPHHD_STRESS_CHUNK", KnobKind::kSize, "8", "bench/stress_stream",
     "stream chunk size of the streaming stress run", false},
    {"GRAPHHD_STRESS_DIM", KnobKind::kSize, "10000", "bench/stress_stream",
     "hypervector dimension of the streaming stress run", false},
    {"GRAPHHD_STRESS_EDGES", KnobKind::kSize, "1000000", "bench/stress_stream",
     "total R-MAT edges of the streaming stress run", false},
    {"GRAPHHD_STRESS_GRAPH_EDGES", KnobKind::kSize, "16384", "bench/stress_stream",
     "edges per generated graph in the streaming stress run", false},
    {"GRAPHHD_STRESS_RSS_MB", KnobKind::kSize, "512", "bench/stress_stream + stress_eval",
     "peak-RSS ceiling (MB) of the streaming/CV stress gates", false},
    {"GRAPHHD_STRESS_SKIP_MATERIALIZED", KnobKind::kSize, "0", "bench/stress_stream",
     "nonzero skips the materialized-equivalence cross-check", false},
    {"GRAPHHD_SWEEP_VERTICES", KnobKind::kSize, "300", "bench/fig4_scalability",
     "graph size of the thread-sweep dataset", false},
    {"GRAPHHD_THREADS", KnobKind::kSize, "hardware", "parallel",
     "worker threads of the process-wide pool", false},
    {"GRAPHHD_WERROR", KnobKind::kString, "OFF", "build (cmake)",
     "CMake option: treat compiler warnings as errors", true},
};

/// Accessor gate: the knob must exist, be a runtime knob, and (for the typed
/// accessors) have the expected kind.  A logic_error here is a programming
/// error — the fix is a registry row, not a catch block.
const EnvKnob& require_knob(const char* name, std::optional<KnobKind> kind) {
  const EnvKnob* knob = find_knob(name);
  if (knob == nullptr || knob->build_time) {
    throw std::logic_error(std::string("runtime::env: '") + name +
                           "' is not a registered runtime knob (add it to the table in "
                           "src/core/runtime.cpp)");
  }
  if (kind.has_value() && knob->kind != *kind) {
    throw std::logic_error(std::string("runtime::env: '") + name + "' is registered as " +
                           to_string(knob->kind) + ", accessed as " + to_string(*kind));
  }
  return *knob;
}

[[nodiscard]] const char* raw_value(const char* name) noexcept {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? nullptr : raw;
}

}  // namespace

const char* to_string(KnobKind kind) noexcept {
  switch (kind) {
    case KnobKind::kSize: return "size";
    case KnobKind::kDouble: return "double";
    case KnobKind::kString: return "string";
  }
  return "unknown";
}

std::span<const EnvKnob> knobs() { return kKnobs; }

const EnvKnob* find_knob(std::string_view name) noexcept {
  for (const EnvKnob& knob : kKnobs) {
    if (name == knob.name) return &knob;
  }
  return nullptr;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  require_knob(name, KnobKind::kSize);
  const char* raw = raw_value(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  // Trailing garbage ("1.5x", "4threads") is a typo, not a value.
  if (end == raw || *end != '\0') return fallback;
  return value < 1 ? fallback : static_cast<std::size_t>(value);
}

double env_double(const char* name, double fallback) {
  require_knob(name, KnobKind::kDouble);
  const char* raw = raw_value(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  return (end == raw || *end != '\0') ? fallback : value;
}

const char* env_raw(const char* name) {
  require_knob(name, std::nullopt);
  return raw_value(name);
}

std::optional<std::string> current_value(const EnvKnob& knob) {
  const char* raw = raw_value(knob.name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

std::vector<std::string> unknown_env_vars() {
  std::vector<std::string> unknown;
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const std::string_view pair(*entry);
    if (pair.rfind("GRAPHHD_", 0) != 0) continue;
    const std::size_t eq = pair.find('=');
    const std::string_view name = pair.substr(0, eq);
    if (find_knob(name) == nullptr) unknown.emplace_back(name);
  }
  std::sort(unknown.begin(), unknown.end());
  unknown.erase(std::unique(unknown.begin(), unknown.end()), unknown.end());
  return unknown;
}

std::size_t peak_rss_kb() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kb;
#else
  return 0;
#endif
}

}  // namespace graphhd::core::runtime
