/// \file flows.hpp
/// The user-facing flows the benchmark drives, through public APIs only:
///
///  * set-up: generate a Table I replica, split it 80/20 (stratified,
///    seeded), write each side as a TUDataset directory, train one model per
///    half of the train side, save each as a v3 artifact and mmap-load it,
///    start a serve::Server behind a TcpServer and handshake two TcpClients
///    (the `graphhd_cli serve` + `predict --remote` arrangement);
///  * train: TUDatasetStream -> fit_stream -> snapshot, then a streamed
///    predict_stream over the held-out directory (the CLI's `train --stream`
///    and `predict --stream` path);
///  * remote: open-loop Poisson arrivals split over the two connections, each
///    client encoding its graph with an encoder built from the handshake
///    config, while the main thread hot-swaps the two served snapshots.
///
/// Every answer is checked: streamed predictions against an in-memory fit of
/// the same split, remote answers against predict_encoded_batch of either
/// served snapshot.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/encoder.hpp"
#include "core/snapshot.hpp"
#include "data/dataset.hpp"
#include "hdc/packed.hpp"
#include "serve/net/tcp_client.hpp"
#include "serve/net/tcp_server.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

/// The user flow a workload is named for.
enum class Flow { kTrain, kRemote };

/// One benchmark workload: a dataset shape, its own flow, and the two offered
/// rates of its remote phase (graphs/s summed over both connections).
struct Workload {
  const char* name;
  const char* dataset;
  std::size_t graphs;  ///< replica size; per-graph shape stays Table I's.
  Flow flow;
  double low_rate;
  double high_rate;
};

[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Pool threads of the train flow, and client connections of the remote flow.
inline constexpr std::size_t kPoolThreads = 4;
inline constexpr std::size_t kClients = 2;
/// Streaming chunk of fit_stream / predict_stream (the CLI default).
inline constexpr std::size_t kChunk = 64;
/// Offered rates (graphs/s) of the in-process serving phase.  Its queries
/// are pre-encoded, so unlike the remote phase it can offer a rate at which
/// the queue coalesces requests into batches.  One worker sweeps a MUTAG
/// query in well under a microsecond, so batches stay near 1 at 16k and 60k
/// graphs/s (mean 1.05 and 1.12 on 4 vCPUs, AVX-512); at 200k the mean
/// batch was 1.4-2.3.
inline constexpr double kInprocLowRate = 2000.0;
inline constexpr double kInprocHighRate = 200000.0;

/// The generated split, in memory and on disk.
struct Inputs {
  std::string name;
  graphhd::data::GraphDataset train;
  graphhd::data::GraphDataset test;
  std::filesystem::path train_dir;
  std::filesystem::path test_dir;
};

/// The running server and its connected clients.  Members are destroyed in
/// reverse order: clients disconnect before the TCP front end stops, and the
/// front end stops before the server it feeds.
struct Serving {
  std::shared_ptr<const graphhd::core::InferenceSnapshot> snapshots[2];
  std::unique_ptr<graphhd::serve::Server> server;
  std::unique_ptr<graphhd::serve::net::TcpServer> tcp;
  std::vector<std::unique_ptr<graphhd::serve::net::TcpClient>> clients;
  std::vector<std::unique_ptr<graphhd::core::GraphHdEncoder>> encoders;
  /// The held-out graphs as `predict --remote` loads them.
  graphhd::data::GraphDataset queries;
  /// Packed encodings of `queries` and their answers from each snapshot.
  std::vector<graphhd::hdc::PackedHypervector> packed;
  std::vector<graphhd::core::Prediction> expected[2];

  /// True when `prediction` is either snapshot's answer for query `index`.
  [[nodiscard]] bool matches(std::size_t index, const graphhd::core::Prediction& prediction) const {
    return same_prediction(prediction, expected[0][index]) ||
           same_prediction(prediction, expected[1][index]);
  }
};

struct Deployment {
  Inputs inputs;
  Serving serving;
};

/// Builds everything the flows need under `directory` (created).
[[nodiscard]] std::unique_ptr<Deployment> set_up(const Workload& workload, std::uint64_t seed,
                                                 const std::filesystem::path& directory);

/// Test-side predictions of an in-memory fit on the same split: the
/// reference every streamed prediction must equal.
[[nodiscard]] std::vector<graphhd::core::Prediction> reference_predictions(const Inputs& inputs);

/// Wall times of one train-flow iteration.
struct TrainTimes {
  double fit_s = 0.0;       ///< TUDatasetStream open + fit_stream.
  double snapshot_s = 0.0;  ///< first snapshot() after the fit.
  double predict_s = 0.0;   ///< TUDatasetStream open + predict_stream.
};

/// One iteration of the real train flow; `predictions` receives the streamed
/// test predictions.
[[nodiscard]] TrainTimes run_train(const Inputs& inputs,
                                   std::vector<graphhd::core::Prediction>& predictions);

/// The same work as run_train, made one layer call at a time so each gets
/// a span on `tracer` thread 0: next_chunk (data), encode_dataset (parallel),
/// class bundling (hdc), snapshot build and class sweep (core).  With a null
/// `tracer` it records nothing, which times the tracing overhead.  Returns
/// the iteration's wall time.
double run_train_traced(const Inputs& inputs, Tracer* tracer, std::uint64_t iteration,
                        std::vector<graphhd::core::Prediction>& predictions);

/// Requests of one open-loop phase.
struct PhaseStats {
  std::vector<double> latency_us;     ///< due time -> answer; +inf for a failure.
  std::vector<Clock::time_point> due;  ///< each latency's due time.
  std::vector<double> late_us;         ///< generator lateness per request sent.
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t swaps = 0;

  void record(Clock::time_point due_time, double latency) {
    due.push_back(due_time);
    latency_us.push_back(latency);
  }

  /// Appends another slice of the same phase.
  void merge(PhaseStats&& other);

  /// Median, over consecutive blocks of 1000 requests in due order, of each
  /// block's q-quantile: a burst of outside interference moves one block,
  /// not the result.
  [[nodiscard]] double block_percentile(double q) const;
};

/// Operations attempted and failed over a whole run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const PhaseStats& phase) {
    attempted += phase.ok + phase.failed;
    failed += phase.failed;
  }

  /// Counts each of `want` as one operation, failed unless `got` holds the
  /// bit-identical prediction at the same index.
  void check(const std::vector<graphhd::core::Prediction>& got,
             const std::vector<graphhd::core::Prediction>& want) {
    attempted += want.size();
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (i >= got.size() || !same_prediction(got[i], want[i])) ++failed;
    }
  }
};

/// Remote phase: Poisson arrivals at `rate` for `seconds` over the TCP
/// clients, snapshots swapped every 250 ms.  With a tracer, client c records
/// its spans on tracer thread 1 + c.
[[nodiscard]] PhaseStats run_remote(Serving& serving, double rate, double seconds,
                                    std::uint64_t seed, Tracer* tracer);

/// In-process phase: Poisson arrivals at `rate` of pre-encoded queries through
/// Server::submit(callback) on a fresh server with the default config — no
/// sockets, so queue wait plus sweep.  `server_stats` receives its counters.
[[nodiscard]] PhaseStats run_inproc(const Serving& serving, double rate, double seconds,
                                    std::uint64_t seed, graphhd::serve::ServerStats& server_stats);

}  // namespace perfbench
