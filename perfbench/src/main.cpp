/// \file main.cpp
/// graphhd_perfbench — the repository benchmark (see BENCHMARK.json).
///
///   graphhd_perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
///
/// Every workload runs the same user flows (flows.hpp) on one Table I
/// replica shape, and gives most of its time to the flow it is named for;
/// the shapes are chosen so each layer does most of its work in one
/// workload and little in another:
///
///   train-proteins  ~39-vertex graphs: per-graph fixed costs (encoder
///                   rebuilds per pool chunk, tie-break streams) dominate;
///   train-dd        ~284-vertex graphs: parsing, PageRank and per-edge
///                   bind/bundle dominate, fixed costs are amortised;
///   serve-mutag     ~18-vertex graphs: wire, socket and queue take their
///                   largest share of a remote predict.
///
/// --trace 0 prints the end-to-end metrics: set-up time (median of three
/// set-ups), median train and streamed-predict throughput over repeated
/// train iterations, held-out accuracy, median remote latency at the
/// workload's low and high offered rate, and peak RSS.  --trace 1 runs the
/// flows again with spans and prints the per-layer metrics instead
/// (probes.hpp).  Inputs come from --seed alone; generated files live in a
/// run directory under --workdir that is removed on exit.  The last stdout
/// line is the result JSON; the exit code is 0 only when every checked
/// answer was bit-identical to its reference.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"
#include "flows.hpp"
#include "hdc/random.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace hdc = graphhd::hdc;

constexpr int kSetups = 3;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path workdir;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_number(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    throw UsageError(flag + " expects a whole number, got '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace" &&
        flag != "--workdir") {
      throw UsageError("unknown flag " + flag);
    }
    values[flag] = argv[i + 1];
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--workdir"}) {
    if (!values.contains(flag)) throw UsageError(std::string("missing ") + flag);
  }
  Options options;
  options.workload = find_workload(values["--workload"]);
  if (options.workload == nullptr) {
    throw UsageError("unknown workload '" + values["--workload"] + "'");
  }
  options.seed = parse_number("--seed", values["--seed"]);
  const std::uint64_t seconds = parse_number("--seconds", values["--seconds"]);
  if (seconds < 1 || seconds > 60) throw UsageError("--seconds must be in [1, 60]");
  options.seconds = static_cast<double>(seconds);
  const std::uint64_t trace = parse_number("--trace", values["--trace"]);
  if (trace > 1) throw UsageError("--trace must be 0 or 1");
  options.trace = trace == 1;
  options.workdir = values["--workdir"];
  return options;
}

/// Removes the run directory on every exit path.
struct RunDirectory {
  fs::path path;
  explicit RunDirectory(fs::path p) : path(std::move(p)) { fs::create_directories(path); }
  ~RunDirectory() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  RunDirectory(const RunDirectory&) = delete;
  RunDirectory& operator=(const RunDirectory&) = delete;
};

void report_phase(const char* name, double rate, const PhaseStats& phase) {
  std::fprintf(stderr,
               "perfbench: remote %s (%.0f graphs/s): sent %zu, ok %zu, failed %zu, "
               "late p99 %.1f us, swaps %zu\n",
               name, rate, phase.sent, phase.ok, phase.failed, percentile(phase.late_us, 0.99),
               phase.swaps);
}

/// The untraced run: every end-to-end metric.  The result reports each of
/// them on every workload, so every workload runs both flows, but the flow
/// the workload is named for gets kOwnShare of the time.  The train flow and
/// the two remote phases take turns in kRounds slices, so each metric
/// samples the whole run rather than one stretch of it.
void measure_end_to_end(Deployment& deployment, const Options& options, Metrics& metrics,
                        Tally& tally) {
  constexpr int kRounds = 5;
  constexpr double kOwnShare = 0.75;
  const Inputs& inputs = deployment.inputs;
  const Workload& workload = *options.workload;
  const auto reference = reference_predictions(inputs);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    hits += reference[i].label == inputs.test.label(i) ? 1 : 0;
  }

  std::vector<double> train_rate;
  std::vector<double> predict_rate;
  std::vector<graphhd::core::Prediction> predictions;
  PhaseStats low;
  PhaseStats high;
  const double slice = options.seconds / kRounds;
  const double train_slice = (workload.flow == Flow::kTrain ? kOwnShare : 1.0 - kOwnShare) * slice;
  const double phase_slice = 0.5 * (slice - train_slice);
  for (int round = 0; round < kRounds; ++round) {
    const auto train_start = Clock::now();
    do {
      const TrainTimes times = run_train(inputs, predictions);
      tally.check(predictions, reference);
      train_rate.push_back(static_cast<double>(inputs.train.size()) /
                           (times.fit_s + times.snapshot_s));
      predict_rate.push_back(static_cast<double>(inputs.test.size()) / times.predict_s);
    } while (seconds_between(train_start, Clock::now()) < train_slice);
    const auto round_seed = hdc::derive_seed(options.seed, static_cast<std::uint64_t>(round));
    low.merge(run_remote(deployment.serving, workload.low_rate, phase_slice,
                         hdc::derive_seed(round_seed, "remote-low"), nullptr));
    high.merge(run_remote(deployment.serving, workload.high_rate, phase_slice,
                          hdc::derive_seed(round_seed, "remote-high"), nullptr));
  }
  std::fprintf(stderr, "perfbench: %zu train iterations\n", train_rate.size());
  report_phase("low", workload.low_rate, low);
  report_phase("high", workload.high_rate, high);
  tally.add(low);
  tally.add(high);
  tally.failed += deployment.serving.tcp->stats().protocol_errors;

  metrics.set("train_graphs_per_s", median(train_rate), "graphs/s");
  metrics.set("predict_graphs_per_s", median(predict_rate), "graphs/s");
  metrics.set("test_accuracy",
              static_cast<double>(hits) / static_cast<double>(reference.size()), "fraction");
  metrics.set("remote_low_p50_us", percentile(low.latency_us, 0.50), "us");
  metrics.set("remote_high_p50_us", percentile(high.latency_us, 0.50), "us");
}

int run(const Options& options) {
  graphhd::parallel::set_threads(kPoolThreads);
  const RunDirectory run_dir(options.workdir / ("run-" + std::to_string(::getpid())));

  // Set up several times and keep the last: the median is the set-up metric.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int r = 0; r < kSetups; ++r) {
    deployment.reset();
    const fs::path dir = run_dir.path / ("setup-" + std::to_string(r));
    const auto start = Clock::now();
    deployment = set_up(*options.workload, options.seed, dir);
    setup_s.push_back(seconds_between(start, Clock::now()));
    if (r > 0) fs::remove_all(run_dir.path / ("setup-" + std::to_string(r - 1)));
  }

  Metrics metrics;
  Tally tally;
  if (options.trace) {
    const fs::path trace_file =
        options.workdir / (std::string("trace-") + options.workload->name + "-seed" +
                           std::to_string(options.seed) + ".jsonl");
    measure_layers(*deployment, *options.workload, options.seed, options.seconds, trace_file,
                   metrics, tally);
  } else {
    metrics.set("setup_s", median(setup_s), "s");
    measure_end_to_end(*deployment, options, metrics, tally);
  }
  deployment.reset();
  if (!options.trace) {
    metrics.set("peak_rss_mb",
                static_cast<double>(graphhd::core::runtime::peak_rss_kb()) / 1024.0, "MB");
  }

  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse(argc, argv);
  } catch (const perfbench::UsageError& error) {
    std::fprintf(stderr,
                 "graphhd_perfbench: %s\nusage: graphhd_perfbench --workload "
                 "train-proteins|train-dd|serve-mutag --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n",
                 error.what());
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "graphhd_perfbench: %s\n", error.what());
    return 1;
  }
}
