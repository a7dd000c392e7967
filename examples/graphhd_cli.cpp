/// \file graphhd_cli.cpp
/// Command-line front end for the library — train, evaluate, predict, serve
/// and generate datasets without writing C++.
///
///   graphhd_cli train   --data DIR --name DS --out MODEL [--dimension N]
///                       [--seed S] [--retrain K] [--prototypes P]
///                       [--backend dense|packed]  (recorded tag)
///                       [--chunk N] [--shards W] [--shard-workers N]
///                       [--shard-index K] [--checkpoint PATH]
///                       [--checkpoint-interval N] [--resume] [--no-prefetch]
///                       (any of these selects bounded-memory streaming ingestion)
///   graphhd_cli merge-checkpoints OUT IN... [--finish --data DIR --name DS]
///                       (combine per-shard checkpoint artifacts — possibly
///                       from different machines — into one model)
///   graphhd_cli serve   MODEL [--port P] [--workers N] [--max-batch B]
///                       [--requests N]   (TCP inference server; port 0 picks
///                       an ephemeral port and prints it — docs/serving.md)
///   graphhd_cli predict --model MODEL --data DIR --name DS [--chunk N]
///   graphhd_cli predict --remote HOST:PORT --data DIR --name DS
///                       (encode locally, classify over the wire protocol;
///                       the handshake supplies the encoder config)
///   graphhd_cli eval    --data DIR --name DS [--folds K] [--reps R]
///                       [--chunk N]  (two-pass streaming k-fold CV)
///   graphhd_cli env     (the GRAPHHD_* knob table + unknown-variable audit)
///   graphhd_cli synth   --name DS --out DIR [--scale X] [--seed S]
///   graphhd_cli gen     --kind rmat|rgg|er --name DS --out DIR [--graphs G]
///                       [--vertices N] [--edges M] [--radius R] [--classes C]
///                       [--seed S]   (streams scale workloads straight to disk)
///   graphhd_cli stats   --data DIR --name DS
///   graphhd_cli model-info PATH   (artifact version/sections/checksums,
///                                  no model constructed)
///   graphhd_cli convert IN OUT [--format v3|text]   (artifact migration)
///
/// Datasets are TUDataset-format directories (DIR/DS/DS_A.txt, ...); when
/// the files are missing, `eval` and `train` fall back to the synthetic
/// replica of DS (one of DD, ENZYMES, MUTAG, NCI1, PROTEINS, PTC_FM).
///
/// Input validation: every flag is checked against the
/// subcommand's allowed set — an unknown flag exits 1 naming it and the
/// nearest valid one (`--dimention` used to be silently ignored and the run
/// trained at the d=10000 default) — and every numeric value is parsed
/// strictly through core/cli.hpp (`--dimension -1` used to wrap to 2^64−1,
/// `--folds 10x` used to run 10 folds, and an out-of-range value terminated
/// the process with an uncaught std::out_of_range).
///
/// `--chunk N` (deprecated alias: `--stream N`) runs
/// training/prediction/evaluation through the GraphStream pipeline
/// (data/stream.hpp): TUDataset files are read incrementally, N graphs at a
/// time, with predictions bit-identical to the materialized path.  `train`
/// additionally accepts `--shards W` (map-reduce sharded fit, bit-identical
/// to serial), `--shard-workers N` (fit up to N shards concurrently on
/// dedicated worker threads — still bit-identical), `--shard-index K`
/// (bundle ONLY shard K of the W-way partition and write a checkpoint
/// artifact instead of a model — the per-machine half of a distributed fit,
/// see `merge-checkpoints`), `--checkpoint PATH` /
/// `--checkpoint-interval N` / `--resume` (crash-safe counter checkpoints,
/// see docs/training.md) and `--no-prefetch` (disable the chunk N+1
/// read-ahead thread).  For `eval` this is the two-pass streaming k-fold
/// protocol (eval/cross_validation.hpp): a label scan plans stratified
/// folds, then each fold trains and tests through filtered replays —
/// accuracies bit-identical to the in-memory protocol, memory bounded by
/// one chunk.  `gen` writes R-MAT / random-geometric /
/// Erdős–Rényi workloads (class-conditional parameters) without ever
/// materializing the dataset — workloads far beyond RAM are fine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/encoder.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "core/runtime.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "eval/baselines.hpp"
#include "eval/cross_validation.hpp"
#include "eval/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "serve/net/tcp_client.hpp"
#include "serve/net/tcp_server.hpp"
#include "serve/server.hpp"

namespace {

using namespace graphhd;
using core::cli::Args;
using core::cli::FlagSpec;
using core::cli::parse_double;
using core::cli::parse_u64;
using core::cli::parse_u64_any_base;

// ---- per-subcommand allowed-flag sets (the typo audit) --------------------
// Every subcommand lists exactly the flags it reads; Args rejects anything
// else, naming the nearest valid flag.  A new flag must be added here AND
// read below — keeping both in one file makes the pairing reviewable.

constexpr std::string_view kTrainValued[] = {
    "data", "name", "out", "scale", "seed", "dimension", "model-seed", "retrain",
    "prototypes", "backend", "chunk", "stream", "shards", "shard-workers",
    "shard-index", "checkpoint", "checkpoint-interval"};
constexpr std::string_view kTrainBoolean[] = {"resume", "no-prefetch"};

constexpr std::string_view kPredictValued[] = {"model", "remote", "data", "name",
                                               "scale", "seed", "chunk", "stream",
                                               "window"};
constexpr std::string_view kPredictBoolean[] = {"no-prefetch"};

constexpr std::string_view kEvalValued[] = {"data", "name", "scale", "seed", "folds",
                                            "reps", "dimension", "model-seed",
                                            "retrain", "prototypes", "backend",
                                            "chunk", "stream"};
constexpr std::string_view kEvalBoolean[] = {"no-prefetch"};

constexpr std::string_view kSynthValued[] = {"name", "out", "scale", "seed"};

constexpr std::string_view kGenValued[] = {"kind", "name",   "out",     "graphs", "vertices",
                                           "edges", "radius", "classes", "seed"};

constexpr std::string_view kStatsValued[] = {"data", "name", "scale", "seed"};

constexpr std::string_view kConvertValued[] = {"format"};

constexpr std::string_view kMergeValued[] = {"data", "name", "scale", "seed", "chunk",
                                             "stream"};
constexpr std::string_view kMergeBoolean[] = {"finish", "no-prefetch"};

constexpr std::string_view kServeValued[] = {"port", "workers", "max-batch", "queue",
                                             "requests"};

constexpr FlagSpec kTrainSpec{kTrainValued, kTrainBoolean};
constexpr FlagSpec kPredictSpec{kPredictValued, kPredictBoolean};
constexpr FlagSpec kEvalSpec{kEvalValued, kEvalBoolean};
constexpr FlagSpec kSynthSpec{kSynthValued, {}};
constexpr FlagSpec kGenSpec{kGenValued, {}};
constexpr FlagSpec kStatsSpec{kStatsValued, {}};
constexpr FlagSpec kConvertSpec{kConvertValued, {}};
constexpr FlagSpec kMergeSpec{kMergeValued, kMergeBoolean};
constexpr FlagSpec kServeSpec{kServeValued, {}};

[[nodiscard]] data::GraphDataset load_dataset(const Args& args) {
  const std::string name = args.require("name");
  const std::string dir = args.get("data", "data");
  const double scale = parse_double("scale", args.get("scale", "1.0"));
  const std::uint64_t seed = parse_u64("seed", args.get("seed", "2022"));
  auto dataset = data::load_or_synthesize(dir, name, seed, scale);
  std::fprintf(stderr, "loaded %s: %zu graphs, %zu classes\n", name.c_str(), dataset.size(),
               dataset.num_classes());
  return dataset;
}

[[nodiscard]] core::GraphHdConfig config_from(const Args& args) {
  core::GraphHdConfig config;
  config.dimension = parse_u64("dimension", args.get("dimension", "10000"));
  config.seed = parse_u64_any_base("model-seed", args.get("model-seed", "0x9badb055"));
  config.retrain_epochs = parse_u64("retrain", args.get("retrain", "0"));
  config.vectors_per_class = parse_u64("prototypes", args.get("prototypes", "1"));
  // --backend records the tag; training and prediction run one code path.
  if (const std::string flag = args.get("backend", ""); !flag.empty()) {
    const auto parsed = core::parse_backend(flag);
    if (!parsed.has_value()) {
      throw std::runtime_error("--backend: expected dense|bipolar|packed|binary, got " + flag);
    }
    config.backend = *parsed;
  }
  // With --retrain the dense tag scores the raw counters (slightly more
  // accurate); the packed tag requires the quantized model.
  if (config.retrain_epochs > 0 && config.backend == core::Backend::kDenseBipolar) {
    config.quantized_model = false;
  }
  return config;
}

/// Streaming source + ground-truth labels for --stream runs.  TUDataset
/// directories are read incrementally; the synthetic fallback materializes
/// (it is generated in memory anyway) and streams the result.
struct StreamSource {
  std::unique_ptr<data::GraphStream> stream;
  std::vector<std::size_t> labels;
  data::GraphDataset fallback;  ///< keeps the DatasetStream target alive.
};

[[nodiscard]] StreamSource open_stream(const Args& args) {
  const std::string name = args.require("name");
  const std::string dir = args.get("data", "data");
  StreamSource source;
  if (data::tudataset_exists(std::string(dir) + "/" + name, name)) {
    auto stream = std::make_unique<data::TUDatasetStream>(std::string(dir) + "/" + name, name);
    source.labels = stream->labels();
    source.stream = std::move(stream);
    std::fprintf(stderr, "streaming %s: %zu graphs, %zu classes\n", name.c_str(),
                 source.labels.size(), source.stream->num_classes());
  } else {
    const double scale = parse_double("scale", args.get("scale", "1.0"));
    const std::uint64_t seed = parse_u64("seed", args.get("seed", "2022"));
    source.fallback = data::make_synthetic_replica(name, seed, scale);
    source.labels = source.fallback.labels();
    source.stream = std::make_unique<data::DatasetStream>(source.fallback);
    std::fprintf(stderr, "streaming synthetic %s: %zu graphs, %zu classes\n", name.c_str(),
                 source.labels.size(), source.stream->num_classes());
  }
  return source;
}

/// Stream-opener source for worker-threaded sharded fits: each shard worker
/// re-opens the source through the opener for a private cursor, so the
/// opener must be callable concurrently.  TUDataset directories re-open the
/// files per call; the synthetic fallback shares one immutable materialized
/// dataset across all DatasetStream views.
struct OpenerSource {
  data::StreamOpener opener;
  std::size_t num_graphs = 0;
  std::size_t num_classes = 0;
};

[[nodiscard]] OpenerSource open_stream_opener(const Args& args) {
  const std::string name = args.require("name");
  const std::string dir = args.get("data", "data");
  const std::string path = dir + "/" + name;
  OpenerSource source;
  if (data::tudataset_exists(path, name)) {
    data::TUDatasetStream probe(path, name);
    source.num_graphs = probe.labels().size();
    source.num_classes = probe.num_classes();
    source.opener = [path, name]() -> std::unique_ptr<data::GraphStream> {
      return std::make_unique<data::TUDatasetStream>(path, name);
    };
    std::fprintf(stderr, "streaming %s: %zu graphs, %zu classes\n", name.c_str(),
                 source.num_graphs, source.num_classes);
  } else {
    const double scale = parse_double("scale", args.get("scale", "1.0"));
    const std::uint64_t seed = parse_u64("seed", args.get("seed", "2022"));
    auto dataset = std::make_shared<const data::GraphDataset>(
        data::make_synthetic_replica(name, seed, scale));
    source.num_graphs = dataset->size();
    source.num_classes = dataset->num_classes();
    source.opener = [dataset]() -> std::unique_ptr<data::GraphStream> {
      return std::make_unique<data::DatasetStream>(*dataset);
    };
    std::fprintf(stderr, "streaming synthetic %s: %zu graphs, %zu classes\n", name.c_str(),
                 source.num_graphs, source.num_classes);
  }
  return source;
}

/// The requested chunk size: --chunk wins, --stream is the deprecated
/// pre-PR-8 alias; 0 = no streaming flag given.
[[nodiscard]] std::size_t stream_chunk_of(const Args& args) {
  if (args.has("chunk")) {
    return parse_u64("chunk", args.get("chunk", ""));
  }
  if (args.has("stream")) {
    return parse_u64("stream", args.get("stream", ""));
  }
  return 0;
}

/// Read-only streaming options (predict/eval) from the flags.
[[nodiscard]] core::StreamOptions stream_options_of(const Args& args, std::size_t chunk) {
  core::StreamOptions options;
  options.chunk = chunk;
  options.prefetch = !args.has("no-prefetch");
  return options;
}

/// Training options when any streaming/training flag is present, nullopt for
/// the materialized path.  --shards/--checkpoint/--resume imply streaming
/// (they only exist on the chunked ingestion path) with the default chunk.
[[nodiscard]] std::optional<core::TrainOptions> train_options_of(const Args& args) {
  core::TrainOptions options;
  bool streaming = false;
  if (const std::size_t chunk = stream_chunk_of(args); chunk > 0) {
    options.chunk = chunk;
    streaming = true;
  }
  if (args.has("shards")) {
    options.shards = parse_u64("shards", args.get("shards", ""));
    streaming = true;
  }
  if (args.has("shard-workers")) {
    // 0 = auto (min(shards, pool threads)).
    options.workers = parse_u64("shard-workers", args.get("shard-workers", ""));
    streaming = true;
  }
  if (const std::string checkpoint = args.get("checkpoint", ""); !checkpoint.empty()) {
    options.checkpoint = checkpoint;
    streaming = true;
  }
  if (args.has("checkpoint-interval")) {
    options.checkpoint_interval =
        parse_u64("checkpoint-interval", args.get("checkpoint-interval", ""));
  }
  options.resume = args.has("resume");
  options.prefetch = !args.has("no-prefetch");
  streaming = streaming || options.resume;
  if (!streaming) return std::nullopt;
  options.validate("graphhd_cli train");
  return options;
}

/// Per-shard progress/RSS lines for sharded fits (stderr, observational).
void print_train_stats(const core::TrainStats& stats) {
  if (stats.shards.size() <= 1 && stats.workers_used <= 1) return;
  for (const auto& shard : stats.shards) {
    std::fprintf(stderr, "shard %zu: %zu samples in %.3f s (peak RSS %zu MB)\n", shard.shard,
                 shard.samples, shard.seconds, shard.peak_rss_kb / 1024);
  }
  std::fprintf(stderr, "%zu worker%s | merge %.3f s | retrain %.3f s\n", stats.workers_used,
               stats.workers_used == 1 ? "" : "s", stats.merge_seconds, stats.retrain_seconds);
}

int cmd_train(const Args& args) {
  const std::string out = args.require("out");
  if (args.has("shard-index")) {
    // Distributed building block: bundle ONLY shard K of the --shards-way
    // partition and write a checkpoint artifact (not a model) for
    // merge-checkpoints to combine later — see docs/training.md.
    const std::uint64_t index = parse_u64("shard-index", args.get("shard-index", ""));
    core::TrainOptions options = train_options_of(args).value_or(core::TrainOptions{});
    auto source = open_stream(args);
    core::GraphHdModel model(config_from(args), source.stream->num_classes());
    const auto progress = model.fit_stream_shard(*source.stream, index, options);
    core::save_checkpoint(model, progress, out);
    std::printf("bundled shard %ju/%ju (%ju samples); checkpoint written to %s\n",
                static_cast<std::uintmax_t>(progress.shard_index),
                static_cast<std::uintmax_t>(progress.shard_count),
                static_cast<std::uintmax_t>(progress.samples_consumed), out.c_str());
    return 0;
  }
  if (const auto parsed = train_options_of(args)) {
    core::TrainOptions options = *parsed;
    core::TrainStats stats;
    options.stats = &stats;
    core::GraphHdConfig config = config_from(args);
    if (options.workers != 1) {
      // Worker-threaded sharded fit: needs the StreamOpener form so every
      // shard worker pulls a private cursor.
      auto source = open_stream_opener(args);
      core::GraphHdModel model(config, source.num_classes);
      model.fit_stream_sharded(source.opener, options);
      core::save_model(model, out);
      std::printf(
          "stream-trained on %zu graphs (chunk %zu, %zu shards, %zu workers); model written "
          "to %s\n",
          source.num_graphs, options.chunk, options.shards, stats.workers_used, out.c_str());
      print_train_stats(stats);
      return 0;
    }
    auto source = open_stream(args);
    core::GraphHdModel model(config, source.stream->num_classes());
    model.fit_stream(*source.stream, options);
    core::save_model(model, out);
    std::printf("stream-trained on %zu graphs (chunk %zu, %zu shard%s); model written to %s\n",
                source.labels.size(), options.chunk, options.shards,
                options.shards == 1 ? "" : "s", out.c_str());
    print_train_stats(stats);
    return 0;
  }
  const auto dataset = load_dataset(args);
  core::GraphHdModel model(config_from(args), dataset.num_classes());
  model.fit(dataset);
  core::save_model(model, out);
  std::printf("trained on %zu graphs; model written to %s\n", dataset.size(), out.c_str());
  std::printf("training-set accuracy: %.1f%%\n", 100.0 * model.evaluate(dataset));
  return 0;
}

/// Splits a --remote HOST:PORT target; the port goes through the same strict
/// parser as every numeric flag.
[[nodiscard]] std::pair<std::string, std::uint16_t> split_host_port(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= target.size()) {
    throw core::cli::UsageError("--remote expects HOST:PORT, got '" + target + "'");
  }
  const std::uint64_t port = parse_u64("remote", target.substr(colon + 1));
  if (port == 0 || port > 65535) {
    throw core::cli::UsageError("--remote port " + std::to_string(port) +
                                " out of range [1, 65535]");
  }
  return {target.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Remote prediction over the wire protocol: encode locally with the config
/// the handshake supplied (no model artifact needed on this machine), then
/// pipeline request frames `--window` deep — same output format and same
/// bits as the local path (the server coalesces into predict_encoded_batch).
int cmd_predict_remote(const Args& args) {
  const auto [host, port] = split_host_port(args.require("remote"));
  serve::net::TcpClientConfig client_config;
  client_config.connect_timeout_ms =
      core::runtime::env_size("GRAPHHD_NET_TIMEOUT_MS", client_config.connect_timeout_ms);
  client_config.read_timeout_ms =
      core::runtime::env_size("GRAPHHD_NET_TIMEOUT_MS", client_config.read_timeout_ms);
  serve::net::TcpClient client(host, port, client_config);
  std::fprintf(stderr,
               "connected to %s:%u — d=%zu, %ju classes, config hash %016jx\n",
               host.c_str(), port, client.config().dimension,
               static_cast<std::uintmax_t>(client.num_classes()),
               static_cast<std::uintmax_t>(client.config_hash()));

  const auto dataset = load_dataset(args);
  // Encode packed: the server converts to its scoring representation
  // exactly.
  core::GraphHdEncoder encoder(client.config());
  const std::size_t window =
      std::max<std::size_t>(1, parse_u64("window", args.get("window", "64")));

  std::size_t hits = 0;
  std::vector<std::uint64_t> pending;  // ids in flight, oldest first.
  std::size_t next_print = 0;          // dataset index of pending.front().
  const auto collect_one = [&] {
    const core::Prediction prediction = client.wait(pending.front());
    pending.erase(pending.begin());
    std::printf("%zu\t%zu\t%.4f\n", next_print, prediction.label, prediction.score);
    hits += prediction.label == dataset.label(next_print) ? 1 : 0;
    ++next_print;
  };
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (pending.size() >= window) {
      collect_one();
    }
    pending.push_back(client.submit(encoder.encode_packed(dataset.graph(i))));
  }
  while (!pending.empty()) {
    collect_one();
  }
  std::fprintf(stderr, "accuracy vs stored labels: %.1f%%\n",
               100.0 * static_cast<double>(hits) /
                   static_cast<double>(dataset.size() == 0 ? 1 : dataset.size()));
  return 0;
}

int cmd_predict(const Args& args) {
  if (args.has("remote")) {
    return cmd_predict_remote(args);
  }
  auto model = core::load_model(args.require("model"));
  if (const std::size_t chunk = stream_chunk_of(args); chunk > 0) {
    auto source = open_stream(args);
    std::size_t hits = 0;
    model.predict_stream(*source.stream, stream_options_of(args, chunk),
                         [&](std::size_t i, const core::Prediction& prediction) {
                           std::printf("%zu\t%zu\t%.4f\n", i, prediction.label, prediction.score);
                           hits += prediction.label == source.labels[i] ? 1 : 0;
                         });
    std::fprintf(stderr, "accuracy vs stored labels: %.1f%%\n",
                 100.0 * static_cast<double>(hits) /
                     static_cast<double>(source.labels.empty() ? 1 : source.labels.size()));
    return 0;
  }
  const auto dataset = load_dataset(args);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto prediction = model.predict(dataset.graph(i));
    std::printf("%zu\t%zu\t%.4f\n", i, prediction.label, prediction.score);
    hits += prediction.label == dataset.label(i) ? 1 : 0;
  }
  std::fprintf(stderr, "accuracy vs stored labels: %.1f%%\n",
               100.0 * static_cast<double>(hits) / static_cast<double>(dataset.size()));
  return 0;
}

namespace serve_signal {
std::atomic<bool> stop_requested{false};
extern "C" void handle(int) { stop_requested.store(true); }
}  // namespace serve_signal

/// serve MODEL [--port P] [--workers N] [--max-batch B] [--queue C]
///             [--requests N]
///
/// Cold-starts an InferenceSnapshot from the artifact (mmap when possible),
/// stands up the batching serve::Server and the TCP front end, prints the
/// bound port (stdout, machine-readable) and runs until SIGINT/SIGTERM — or,
/// with --requests N, until N requests have been answered (scripted tests).
int cmd_serve(const std::string& model_path, const Args& args) {
  const std::uint64_t port_value =
      parse_u64("port", args.get("port", std::to_string(core::runtime::env_size(
                                            "GRAPHHD_NET_PORT", 0))));
  if (port_value > 65535) {
    throw core::cli::UsageError("--port " + std::to_string(port_value) +
                                " out of range [0, 65535]");
  }
  serve::ServerConfig server_config;
  server_config.worker_threads =
      std::max<std::uint64_t>(1, parse_u64("workers", args.get("workers", "1")));
  server_config.max_batch =
      std::max<std::uint64_t>(1, parse_u64("max-batch", args.get("max-batch", "64")));
  server_config.queue_capacity =
      std::max<std::uint64_t>(2, parse_u64("queue", args.get("queue", "1024")));
  const std::uint64_t request_limit = parse_u64("requests", args.get("requests", "0"));

  auto snapshot = core::load_snapshot(model_path, core::SnapshotLoad::kAuto);
  serve::Server server(std::move(snapshot), server_config);
  serve::net::TcpServerConfig net_config;
  net_config.port = static_cast<std::uint16_t>(port_value);
  serve::net::TcpServer tcp(server, net_config);

  const auto& config = server.snapshot()->config();
  std::printf("%u\n", tcp.port());  // machine-readable: first line is the port.
  std::fflush(stdout);
  std::fprintf(stderr,
               "serving %s (d=%zu, %zu classes) on 127.0.0.1:%u — "
               "%zu worker%s, max batch %zu%s\n",
               model_path.c_str(), config.dimension, server.snapshot()->num_classes(),
               tcp.port(), server_config.worker_threads,
               server_config.worker_threads == 1 ? "" : "s", server_config.max_batch,
               request_limit > 0
                   ? (" (exits after " + std::to_string(request_limit) + " requests)").c_str()
                   : "");

  std::signal(SIGINT, serve_signal::handle);
  std::signal(SIGTERM, serve_signal::handle);
  while (!serve_signal::stop_requested.load()) {
    if (request_limit > 0 && tcp.stats().responses >= request_limit) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  tcp.stop();
  server.shutdown();
  const auto net_stats = tcp.stats();
  const auto stats = server.stats();
  std::fprintf(stderr,
               "served %ju requests over %ju connections (%ju batches, max batch %ju, "
               "%ju protocol errors)\n",
               static_cast<std::uintmax_t>(net_stats.responses),
               static_cast<std::uintmax_t>(net_stats.connections),
               static_cast<std::uintmax_t>(stats.batches),
               static_cast<std::uintmax_t>(stats.max_batch),
               static_cast<std::uintmax_t>(net_stats.protocol_errors));
  return 0;
}

void print_cv_summary(const eval::CvResult& result, const std::string& name,
                      const eval::CvConfig& cv) {
  const auto acc = result.accuracy();
  std::printf("GraphHD on %s: accuracy %.1f%% ± %.1f (%zux%zu-fold CV)\n", name.c_str(),
              100.0 * acc.mean, 100.0 * acc.std, cv.repetitions, cv.folds);
  std::printf("train %.4f s/fold | inference %.2e s/graph\n", result.train_seconds_per_fold(),
              result.inference_seconds_per_graph());
}

int cmd_eval(const Args& args) {
  eval::CvConfig cv;
  cv.folds = parse_u64("folds", args.get("folds", "10"));
  cv.repetitions = parse_u64("reps", args.get("reps", "1"));
  if (const std::size_t chunk = stream_chunk_of(args); chunk > 0) {
    // Streaming protocol: two-pass k-fold over the GraphStream, bounded
    // memory, bit-identical results to the materialized run below.
    cv.stream = stream_options_of(args, chunk);
    auto source = open_stream(args);
    eval::ExperimentConfig experiment;
    experiment.cv = cv;
    const auto result = eval::run_graphhd_stream_cv(*source.stream, args.require("name"),
                                                    experiment, config_from(args));
    print_cv_summary(result, args.require("name"), cv);
    return 0;
  }
  const auto dataset = load_dataset(args);
  const auto result = eval::cross_validate(
      "GraphHD", eval::make_graphhd_factory(config_from(args)), dataset, cv);
  print_cv_summary(result, dataset.name(), cv);
  return 0;
}

int cmd_stats(const Args& args) {
  const auto dataset = load_dataset(args);
  const auto stats = graph::compute_stats(dataset.graphs(), dataset.labels());
  std::printf("%s\n", graph::stats_header().c_str());
  std::printf("%s\n", graph::format_stats_row(dataset.name(), stats).c_str());
  std::printf("vertex range [%zu, %zu], edge range [%zu, %zu], majority class %.1f%%\n",
              stats.min_vertices, stats.max_vertices, stats.min_edges, stats.max_edges,
              100.0 * dataset.majority_class_fraction());
  return 0;
}

/// Builds the per-class generator factory for `gen`.  Class parameters
/// interpolate from the most skewed setting (class 0) toward uniform /
/// denser settings, so structure-only classifiers have real signal.
[[nodiscard]] data::GeneratorStream::Factory make_gen_factory(const std::string& kind,
                                                              std::size_t vertices,
                                                              std::size_t edges, double radius,
                                                              std::size_t classes) {
  const auto blend = [classes](std::size_t label) {
    return classes < 2 ? 0.0
                       : static_cast<double>(label) / static_cast<double>(classes - 1);
  };
  if (kind == "rmat") {
    return [vertices, edges, blend](std::size_t, std::size_t label, hdc::Rng& rng) {
      const double t = blend(label);
      graph::RmatParams params;
      params.a = 0.57 + t * (0.25 - 0.57);
      params.b = 0.19 + t * (0.25 - 0.19);
      params.c = params.b;
      return graph::rmat(vertices, edges, params, rng);
    };
  }
  if (kind == "rgg") {
    return [vertices, radius, blend](std::size_t, std::size_t label, hdc::Rng& rng) {
      return graph::random_geometric(vertices, radius * (1.0 + 0.35 * blend(label)), rng);
    };
  }
  if (kind == "er") {
    return [vertices, edges, blend](std::size_t, std::size_t label, hdc::Rng& rng) {
      const auto m = static_cast<std::size_t>(
          static_cast<double>(edges) * (1.0 + 0.35 * blend(label)));
      return graph::erdos_renyi_gnm(vertices, m, rng);
    };
  }
  throw std::runtime_error("--kind: expected rmat|rgg|er, got " + kind);
}

int cmd_gen(const Args& args) {
  const std::string kind = args.require("kind");
  const std::string name = args.require("name");
  const std::string out = args.require("out");
  const std::size_t graphs = parse_u64("graphs", args.get("graphs", "64"));
  const std::size_t vertices = parse_u64("vertices", args.get("vertices", "256"));
  const std::size_t edges =
      parse_u64("edges", args.get("edges", std::to_string(4 * vertices)));
  const double radius = parse_double("radius", args.get("radius", "0.08"));
  const std::size_t classes = parse_u64("classes", args.get("classes", "2"));
  const std::uint64_t seed = parse_u64("seed", args.get("seed", "2022"));

  data::GeneratorStream stream(graphs, classes,
                               graphhd::hdc::derive_seed(seed, "cli-gen"),
                               make_gen_factory(kind, vertices, edges, radius, classes));
  // Straight generator -> writer: the workload never exists in memory.
  data::TUDatasetWriter writer(std::string(out) + "/" + name, name);
  std::size_t total_edges = 0;
  while (auto sample = stream.next()) {
    total_edges += sample->graph.num_edges();
    writer.append(sample->graph, sample->label);
  }
  writer.close();
  std::printf("wrote %zu %s graphs (%zu vertices each, %zu edges total) to %s/%s\n",
              writer.graphs_written(), kind.c_str(), vertices, total_edges, out.c_str(),
              name.c_str());
  return 0;
}

void usage();

/// merge-checkpoints OUT IN... [--finish --data DIR --name DS [--chunk N]]
///
/// Combines the per-shard checkpoint artifacts of one sharded bundling pass
/// (written by `train --shards W --shard-index K`, possibly on W different
/// machines) into the exact counter state a single-process sharded fit would
/// have bundled.  Without --finish the merged state is written as a
/// checkpoint artifact (retraining still pending); with --finish the
/// retraining epochs run over the named stream and OUT is a finished model —
/// byte-for-byte the artifact `train --shards W` would have produced.
int cmd_merge_checkpoints(int argc, char** argv) {
  int first_flag = 2;
  std::vector<std::string> positionals;
  while (first_flag < argc && std::strncmp(argv[first_flag], "--", 2) != 0) {
    positionals.emplace_back(argv[first_flag]);
    ++first_flag;
  }
  if (positionals.size() < 2) {
    usage();
    return 2;
  }
  const Args args(argc, argv, first_flag, kMergeSpec);
  const std::string out = positionals.front();
  const std::vector<std::filesystem::path> inputs(positionals.begin() + 1, positionals.end());
  auto merged = core::merge_checkpoint_files(inputs);
  if (args.has("finish")) {
    const std::size_t chunk = stream_chunk_of(args);
    auto source = open_stream(args);
    merged.model.finish_training(*source.stream,
                                 stream_options_of(args, chunk == 0 ? 64 : chunk));
    core::save_model(merged.model, out);
    std::printf("merged %zu shard checkpoints (%ju samples), finished retraining; model "
                "written to %s\n",
                inputs.size(), static_cast<std::uintmax_t>(merged.progress.samples_consumed),
                out.c_str());
    return 0;
  }
  core::save_checkpoint(merged.model, merged.progress, out);
  std::printf("merged %zu shard checkpoints (%ju samples); checkpoint written to %s "
              "(retraining pending — rerun with --finish or resume it)\n",
              inputs.size(), static_cast<std::uintmax_t>(merged.progress.samples_consumed),
              out.c_str());
  return 0;
}

int cmd_model_info(const std::string& path) {
  const auto info = core::inspect_model(path);
  std::printf("artifact           %s\n", path.c_str());
  std::printf("version            v%d (%s)\n", info.version,
              info.version >= 3 ? "binary section format" : "text format");
  std::printf("backend            %s\n", core::to_string(info.backend));
  std::printf("dimension          %zu\n", info.dimension);
  std::printf("num_classes        %zu\n", info.num_classes);
  std::printf("vectors_per_class  %zu\n", info.vectors_per_class);
  std::printf("quantized          %s\n", info.quantized ? "yes" : "no");
  std::printf("fitted             %s\n", info.fitted ? "yes" : "no");
  std::printf("file size          %ju bytes\n", static_cast<std::uintmax_t>(info.file_bytes));
  if (!info.sections.empty()) {
    std::printf("sections:\n");
    std::printf("  %-14s %12s %12s  %s\n", "name", "offset", "bytes", "checksum");
    for (const auto& section : info.sections) {
      std::printf("  %-14s %12ju %12ju  %s\n", section.name.c_str(),
                  static_cast<std::uintmax_t>(section.offset),
                  static_cast<std::uintmax_t>(section.length),
                  section.checksum_ok ? "ok" : "MISMATCH");
    }
  }
  std::printf("checksums          %s\n", info.checksums_ok ? "ok" : "FAILED");
  return info.checksums_ok ? 0 : 1;
}

int cmd_convert(const std::string& in, const std::string& out, const Args& args) {
  const auto info = core::inspect_model(in);
  auto model = core::load_model(in);
  const std::string format = args.get("format", "v3");
  if (format == "v3" || format == "binary") {
    core::save_model(model, out);
  } else if (format == "v2" || format == "text") {
    core::save_model_text(model, out);
  } else {
    throw std::runtime_error("--format: expected v3|binary|v2|text, got " + format);
  }
  std::printf("converted %s (v%d) -> %s (%s)\n", in.c_str(), info.version, out.c_str(),
              format.c_str());
  return 0;
}

int cmd_env() {
  std::printf("%-28s %-6s %-22s %-20s %s\n", "name", "kind", "value", "component",
              "description");
  for (const auto& knob : core::runtime::knobs()) {
    const auto value = core::runtime::current_value(knob);
    // Unset knobs show their default in parentheses so the table doubles as
    // reference documentation.
    std::string shown;
    if (value.has_value()) {
      shown = *value;
    } else {
      shown.reserve(std::strlen(knob.fallback) + 2);
      shown += '(';
      shown += knob.fallback;
      shown += ')';
    }
    std::printf("%-28s %-6s %-22s %-20s %s%s\n", knob.name,
                core::runtime::to_string(knob.kind), shown.c_str(), knob.component,
                knob.description, knob.build_time ? " [build-time]" : "");
  }
  const auto unknown = core::runtime::unknown_env_vars();
  for (const auto& name : unknown) {
    std::fprintf(stderr,
                 "warning: %s is set but not a registered GRAPHHD_* knob (typo?)\n",
                 name.c_str());
  }
  return unknown.empty() ? 0 : 1;
}

int cmd_synth(const Args& args) {
  const std::string name = args.require("name");
  const std::string out = args.require("out");
  const double scale = parse_double("scale", args.get("scale", "1.0"));
  const std::uint64_t seed = parse_u64("seed", args.get("seed", "2022"));
  const auto dataset = data::make_synthetic_replica(name, seed, scale);
  data::save_tudataset(dataset, std::string(out) + "/" + name);
  std::printf("wrote %zu graphs to %s/%s in TUDataset format\n", dataset.size(), out.c_str(),
              name.c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: graphhd_cli <train|predict|eval|serve|env|synth|gen|stats|model-info"
               "|convert|merge-checkpoints> [--flag value ...]\n"
               "  train      --data DIR --name DS --out MODEL [--dimension N] [--retrain K]\n"
               "             [--backend dense|packed]   (recorded tag)\n"
               "             [--chunk N]                (bounded-memory chunked ingestion)\n"
               "             [--shards W]               (sharded map-reduce fit, == serial)\n"
               "             [--shard-workers N]        (fit N shards concurrently; 0 = auto)\n"
               "             [--shard-index K]          (bundle only shard K; --out is then a\n"
               "                                         checkpoint for merge-checkpoints)\n"
               "             [--checkpoint PATH] [--checkpoint-interval N] [--resume]\n"
               "             [--no-prefetch]            (disable chunk read-ahead)\n"
               "  merge-checkpoints OUT IN...           (combine per-shard checkpoints, e.g.\n"
               "             from W machines; add --finish --data DIR --name DS [--chunk N]\n"
               "             to run the retraining epochs and write a finished model)\n"
               "  serve      MODEL [--port P] [--workers N] [--max-batch B] [--queue C]\n"
               "             [--requests N]   (TCP inference server on 127.0.0.1; port 0 =\n"
               "             ephemeral, printed on stdout — see docs/serving.md)\n"
               "  predict    --model MODEL --data DIR --name DS [--chunk N] [--no-prefetch]\n"
               "  predict    --remote HOST:PORT --data DIR --name DS [--window N]\n"
               "             (classify over the wire protocol; encoder config comes from\n"
               "             the server handshake — no local model file needed)\n"
               "  eval       --data DIR --name DS [--folds K] [--reps R] [--scale X]\n"
               "             [--backend dense|packed] [--chunk N] [--no-prefetch]\n"
               "  env        (GRAPHHD_* knob table, current values, unknown-var warnings)\n"
               "  synth      --name DS --out DIR [--scale X] [--seed S]\n"
               "  gen        --kind rmat|rgg|er --name DS --out DIR [--graphs G]\n"
               "             [--vertices N] [--edges M] [--radius R] [--classes C] [--seed S]\n"
               "  stats      --data DIR --name DS\n"
               "  model-info PATH            (artifact header + checksums; no model built)\n"
               "  convert    IN OUT [--format v3|text]   (upgrade v1/v2 text to binary v3)\n"
               "input validation: flags are checked against each subcommand's\n"
               "allowed set (a typo'd flag errors out naming the nearest valid one), and\n"
               "numeric values are parsed strictly (no sign wrap, no trailing garbage).\n"
               "--stream N is a deprecated alias of --chunk N; boolean flags (--resume,\n"
               "--no-prefetch, --finish) take no value.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const std::string command = argv[1];
    // Positional-argument commands (the rest are --flag value pairs).
    if (command == "model-info") {
      if (argc < 3) {
        usage();
        return 2;
      }
      return cmd_model_info(argv[2]);
    }
    if (command == "convert") {
      if (argc < 4) {
        usage();
        return 2;
      }
      return cmd_convert(argv[2], argv[3], Args(argc, argv, 4, kConvertSpec));
    }
    if (command == "env") {
      return cmd_env();
    }
    if (command == "merge-checkpoints") {
      return cmd_merge_checkpoints(argc, argv);
    }
    if (command == "serve") {
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        usage();
        return 2;
      }
      return cmd_serve(argv[2], Args(argc, argv, 3, kServeSpec));
    }
    if (command == "train") return cmd_train(Args(argc, argv, 2, kTrainSpec));
    if (command == "predict") return cmd_predict(Args(argc, argv, 2, kPredictSpec));
    if (command == "eval") return cmd_eval(Args(argc, argv, 2, kEvalSpec));
    if (command == "synth") return cmd_synth(Args(argc, argv, 2, kSynthSpec));
    if (command == "gen") return cmd_gen(Args(argc, argv, 2, kGenSpec));
    if (command == "stats") return cmd_stats(Args(argc, argv, 2, kStatsSpec));
    usage();
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
