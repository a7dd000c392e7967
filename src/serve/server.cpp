#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace graphhd::serve {

namespace {

/// Empty-queue polls (with yields) before an idle worker parks on the wake
/// futex.  Parking is off the hot path: while traffic flows, workers never
/// park and submitters never lock.
constexpr std::size_t kSpinPolls = 256;

const core::InferenceSnapshot& require_snapshot(
    const std::shared_ptr<const core::InferenceSnapshot>& snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("serve::Server: null snapshot");
  }
  return *snapshot;
}

/// Decrements the submitter count on scope exit (exception-safe gate release).
class GateRelease {
 public:
  explicit GateRelease(std::atomic<std::uint64_t>& state) : state_(state) {}
  ~GateRelease() { state_.fetch_sub(1, std::memory_order_release); }
  GateRelease(const GateRelease&) = delete;
  GateRelease& operator=(const GateRelease&) = delete;

 private:
  std::atomic<std::uint64_t>& state_;
};

}  // namespace

Server::Server(std::shared_ptr<const core::InferenceSnapshot> snapshot, ServerConfig config)
    : config_(config),
      dimension_(require_snapshot(snapshot).dimension()),
      snapshot_(std::move(snapshot)),
      queue_(config.queue_capacity) {
  if (config_.worker_threads == 0) {
    throw std::invalid_argument("serve::Server: worker_threads must be positive");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("serve::Server: max_batch must be positive");
  }
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::shared_ptr<const core::InferenceSnapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void Server::swap(std::shared_ptr<const core::InferenceSnapshot> next) {
  if (next == nullptr) {
    throw std::invalid_argument("Server::swap: null snapshot");
  }
  const auto current = snapshot();
  if (!core::encoder_compatible(current->config(), next->config())) {
    throw std::invalid_argument(
        "Server::swap: replacement snapshot is encoder-incompatible "
        "(dimension/seed/identifier/pagerank/labels/rounds/bitslice/backend must match)");
  }
  // Two racing compatible swaps are both compatible with each other (the
  // contract is field equality, hence transitive), so the check need not
  // hold the lock across the store: whichever store lands last wins, and
  // every batch in between serves exactly one valid snapshot.  The old
  // snapshot is released outside the lock.
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_.swap(next);
  }
  stat_swaps_.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<Server::Request> Server::make_request(hdc::PackedHypervector&& query) {
  if (query.dimension() != dimension_) {
    throw std::invalid_argument("Server::submit: query dimension mismatch");
  }
  auto request = std::make_unique<Request>();
  request->query = std::move(query);
  return request;
}

void Server::enqueue(std::unique_ptr<Request> request) {
  const std::uint64_t state = submit_state_.fetch_add(1, std::memory_order_acq_rel);
  GateRelease release(submit_state_);
  if (state & kStopBit) {
    throw std::runtime_error("Server::submit: server is shut down");
  }
  Request* raw = request.release();
  // Back-pressure: a full queue spins the submitter (yielding so the
  // workers draining it get CPU on small hosts).  Progress is guaranteed —
  // the gate keeps the workers alive until this push lands.
  while (!queue_.try_push(std::move(raw))) {
    std::this_thread::yield();
  }
  if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
  }
}

std::future<core::Prediction> Server::submit(hdc::PackedHypervector encoded) {
  auto request = make_request(std::move(encoded));
  request->use_promise = true;
  auto future = request->promise.get_future();
  enqueue(std::move(request));
  return future;
}

void Server::submit(hdc::PackedHypervector encoded, Callback callback) {
  if (!callback) throw std::invalid_argument("Server::submit: empty callback");
  auto request = make_request(std::move(encoded));
  request->callback = std::move(callback);
  enqueue(std::move(request));
}

void Server::shutdown() {
  std::call_once(shutdown_once_, [this] {
    submit_state_.fetch_or(kStopBit, std::memory_order_acq_rel);
    // Wait out submitters already past the gate: once the count hits zero
    // no further push can happen, so "queue empty" becomes terminal for the
    // workers below.
    while ((submit_state_.load(std::memory_order_acquire) & ~kStopBit) != 0) {
      std::this_thread::yield();
    }
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      wake_cv_.notify_all();
    }
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  });
}

bool Server::stopped() const noexcept {
  return (submit_state_.load(std::memory_order_acquire) & kStopBit) != 0;
}

ServerStats Server::stats() const noexcept {
  ServerStats stats;
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.batches = stat_batches_.load(std::memory_order_relaxed);
  stats.max_batch = stat_max_batch_.load(std::memory_order_relaxed);
  stats.swaps = stat_swaps_.load(std::memory_order_relaxed);
  return stats;
}

void Server::worker_loop() {
  WorkerScratch scratch;
  scratch.batch.reserve(config_.max_batch);
  scratch.query_rows.reserve(config_.max_batch);
  scratch.predictions.reserve(config_.max_batch);

  for (;;) {
    // Read the gate BEFORE the pop: if it already reads "stopping, no
    // submitter in flight" and the pop still finds nothing, nothing can
    // arrive afterwards either — safe to exit.
    const std::uint64_t state = submit_state_.load(std::memory_order_acquire);
    Request* head = nullptr;
    if (!queue_.try_pop(head)) {
      if (state == kStopBit) return;
      // Idle: poll-spin briefly (yielding the core), then park.  The
      // 1 ms wait_for timeout is a belt-and-braces bound on the one narrow
      // missed-wake window (between the re-check and the wait) — it is not
      // a batching timer; requests never wait on it while a worker is awake.
      bool found = false;
      for (std::size_t poll = 0; poll < kSpinPolls; ++poll) {
        std::this_thread::yield();
        if (queue_.try_pop(head)) {
          found = true;
          break;
        }
      }
      if (!found) {
        idle_workers_.fetch_add(1, std::memory_order_seq_cst);
        if (!queue_.try_pop(head)) {
          std::unique_lock<std::mutex> lock(wake_mutex_);
          wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
          lock.unlock();
          idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
          continue;
        }
        idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
      }
    }

    // Adaptive coalescing: take the head plus whatever else is already
    // queued, up to max_batch — no waiting for stragglers.
    scratch.batch.clear();
    scratch.batch.push_back(head);
    Request* next = nullptr;
    while (scratch.batch.size() < config_.max_batch && queue_.try_pop(next)) {
      scratch.batch.push_back(next);
    }
    process_batch(scratch);
  }
}

void Server::process_batch(WorkerScratch& scratch) {
  // Pin one snapshot for the whole batch: a concurrent swap() retargets the
  // *next* batch, never tears this one.
  const std::shared_ptr<const core::InferenceSnapshot> snap = snapshot();
  const std::size_t n = scratch.batch.size();
  scratch.predictions.resize(n);
  scratch.query_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.query_rows[i] = scratch.batch[i]->query.words().data();
  }
  snap->predict_encoded_batch(scratch.query_rows.data(), n, scratch.predictions.data());
  // Count the batch BEFORE publishing completions: a caller who saw its
  // future resolve is guaranteed to see itself in stats().
  stat_requests_.fetch_add(n, std::memory_order_relaxed);
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = stat_max_batch_.load(std::memory_order_relaxed);
  while (n > seen && !stat_max_batch_.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  for (std::size_t i = 0; i < n; ++i) {
    complete(scratch.batch[i], scratch.predictions[i]);
  }
  scratch.batch.clear();
}

void Server::complete(Request* request, const core::Prediction& prediction) noexcept {
  std::unique_ptr<Request> owned(request);
  try {
    if (owned->use_promise) {
      owned->promise.set_value(prediction);
    } else {
      owned->callback(prediction);
    }
  } catch (...) {
    // Callbacks are documented not to throw; a violation must not take the
    // serving loop (and every other in-flight request) down with it.
  }
}

}  // namespace graphhd::serve
