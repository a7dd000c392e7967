/// \file server.hpp
/// Batching inference server over an immutable InferenceSnapshot — the
/// serving loop of the trainer/serving split (core/snapshot.hpp).
///
/// Concurrently submitted encoded queries flow through a bounded lock-free
/// MPMC ring (serve/queue.hpp) to a small set of worker threads.  A worker
/// drains whatever the queue holds — up to ServerConfig::max_batch — into
/// one batch and classifies it with a single coalesced sweep over the
/// snapshot's class rows (InferenceSnapshot::predict_encoded_batch), so the
/// per-query kernel-launch and allocation overhead amortizes across every
/// request that arrived while the previous batch was in flight.  Batch size
/// therefore *adapts to load*: near-idle traffic runs at batch 1 (lowest
/// latency), saturating traffic runs at max_batch (highest throughput) —
/// there is no batching timer on the hot path.
///
/// Every request carries packed words, whatever the snapshot's scoring: a
/// quantized snapshot scores them by Hamming distance, a counter-scoring one
/// by counter cosine, both inside predict_encoded_batch.
///
/// Hot swap: the served snapshot lives in a mutex-guarded shared_ptr.
/// Workers copy it once per batch, so swap() — which validates the
/// replacement against the encoder-compatibility contract
/// (core::encoder_compatible) — retargets traffic between batches without
/// torn reads or mixed models inside a batch.  Responses during a swap come
/// from exactly one of the two snapshots, which may differ in scoring mode.
///
/// Shutdown is graceful: submissions that were accepted are always answered.
/// shutdown() (and the destructor) first closes the submission gate — late
/// submit() calls throw — then lets the workers drain every queued request
/// before joining them.
///
/// Thread safety: submit(), swap(), snapshot() and stats() may be called
/// from any number of threads.  Completion callbacks run on worker threads
/// and must not throw (exceptions are swallowed to keep the serving loop
/// alive).  Encoding is the *client's* job: a client thread owns one
/// core::GraphHdEncoder built from snapshot()->config() and submits
/// encode_packed(graph) (encoders are not thread-safe; every encoder built
/// from an encoder-compatible config yields the same bits).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/snapshot.hpp"
#include "hdc/packed.hpp"
#include "serve/queue.hpp"

namespace graphhd::serve {

/// Tuning knobs of a Server.  The defaults serve well on a few cores; see
/// docs/serving.md for the tuning guide.
struct ServerConfig {
  /// Bound on queued (accepted, unanswered) requests; rounded up to a power
  /// of two.  A full queue back-pressures submit() into a yield-spin.
  std::size_t queue_capacity = 1024;
  /// Largest coalesced batch a worker drains in one sweep.
  std::size_t max_batch = 64;
  /// Worker threads draining the queue.  One worker keeps batches maximal
  /// under load; more workers add compute parallelism on multicore hosts.
  std::size_t worker_threads = 1;
};

/// Monotonic counters describing a server's lifetime (snapshot via stats()).
struct ServerStats {
  std::uint64_t requests = 0;   ///< requests completed.
  std::uint64_t batches = 0;    ///< coalesced sweeps executed.
  std::uint64_t max_batch = 0;  ///< largest batch observed.
  std::uint64_t swaps = 0;      ///< successful hot swaps.
};

/// Batching, hot-swappable inference server over an InferenceSnapshot.
class Server {
 public:
  /// Completion callback; runs on a worker thread, must not throw.
  using Callback = std::function<void(const core::Prediction&)>;

  /// Starts the worker threads immediately.  Throws std::invalid_argument
  /// on a null snapshot or a zero worker/batch count.
  explicit Server(std::shared_ptr<const core::InferenceSnapshot> snapshot,
                  ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

  /// Query dimension, fixed for the server's lifetime: swap() admits only
  /// encoder-compatible snapshots, which share it.
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// The currently served snapshot (never null).
  [[nodiscard]] std::shared_ptr<const core::InferenceSnapshot> snapshot() const;

  /// Publishes `next` to subsequent batches.  Throws
  /// std::invalid_argument when `next` is null or encoder-incompatible with
  /// the current snapshot (core::encoder_compatible); in-flight traffic is
  /// undisturbed either way.
  void swap(std::shared_ptr<const core::InferenceSnapshot> next);

  /// Submits one encoded query; the future resolves with its Prediction,
  /// bit-identical to the served snapshot's predict_encoded.  Throws
  /// std::invalid_argument on a dimension mismatch and std::runtime_error
  /// after shutdown.
  [[nodiscard]] std::future<core::Prediction> submit(hdc::PackedHypervector encoded);

  /// Callback flavour of submit — the open-loop path: no future, no wait;
  /// `callback` fires on a worker thread once the batch containing this
  /// request completes.
  void submit(hdc::PackedHypervector encoded, Callback callback);

  /// Closes the submission gate, drains every accepted request, joins the
  /// workers.  Idempotent; called by the destructor.
  void shutdown();

  /// True once shutdown began (late submits throw).
  [[nodiscard]] bool stopped() const noexcept;

  [[nodiscard]] ServerStats stats() const noexcept;

 private:
  struct Request {
    hdc::PackedHypervector query;
    std::promise<core::Prediction> promise;
    Callback callback;  ///< empty => resolve the promise instead.
    bool use_promise = false;
  };

  /// Reusable per-worker buffers (one coalesced sweep allocates nothing
  /// beyond first use).
  struct WorkerScratch {
    std::vector<Request*> batch;
    std::vector<const std::uint64_t*> query_rows;
    std::vector<core::Prediction> predictions;
  };

  [[nodiscard]] std::unique_ptr<Request> make_request(hdc::PackedHypervector&& query);
  void enqueue(std::unique_ptr<Request> request);
  void worker_loop();
  void process_batch(WorkerScratch& scratch);
  void complete(Request* request, const core::Prediction& prediction) noexcept;

  ServerConfig config_;
  std::size_t dimension_ = 0;

  /// The served snapshot.  Workers copy it once per batch, so the lock is
  /// taken once per batch, never per request.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const core::InferenceSnapshot> snapshot_;

  BoundedMpmcQueue<Request*> queue_;

  /// Submission gate: low bits count submitters inside submit(), the top
  /// bit is the stop flag.  shutdown() sets the bit and waits for the count
  /// to drain, after which "stop set, count zero, queue empty" is a
  /// terminal state the workers can trust.
  static constexpr std::uint64_t kStopBit = std::uint64_t{1} << 63;
  std::atomic<std::uint64_t> submit_state_{0};

  /// Idle-worker parking.  Submitters touch the mutex only when a worker is
  /// actually parked (idle_workers_ > 0) — never while traffic keeps every
  /// worker busy.
  std::atomic<std::size_t> idle_workers_{0};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_max_batch_{0};
  std::atomic<std::uint64_t> stat_swaps_{0};

  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace graphhd::serve
