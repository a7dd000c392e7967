#include "flows.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/model.hpp"
#include "core/options.hpp"
#include "core/serialize.hpp"
#include "data/stream.hpp"
#include "data/synthetic.hpp"
#include "data/tudataset.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/random.hpp"

namespace perfbench {

namespace core = graphhd::core;
namespace data = graphhd::data;
namespace hdc = graphhd::hdc;
namespace net = graphhd::serve::net;

namespace {

constexpr auto kSwapInterval = std::chrono::milliseconds(250);
/// Head start so every generator thread is running before the first due time.
constexpr auto kStartDelay = std::chrono::milliseconds(20);
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Swaps the server between the two snapshots every kSwapInterval until
/// `running` drops to zero; returns the number of swaps.
std::size_t swap_until_done(graphhd::serve::Server& server, const Serving& serving,
                            Clock::time_point start, const std::atomic<std::size_t>& running) {
  std::size_t swaps = 0;
  auto next_swap = start + kSwapInterval;
  while (running.load(std::memory_order_acquire) > 0) {
    if (Clock::now() >= next_swap) {
      ++swaps;
      server.swap(serving.snapshots[swaps % 2]);
      next_swap += kSwapInterval;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return swaps;
}

/// One connection's share of a remote phase: send each request when due
/// (encoding it first, as `predict --remote` does), and while the next one is
/// not yet due, collect the oldest answer.
PhaseStats drive_client(Serving& serving, std::size_t c,
                        const std::vector<Clock::time_point>& due, std::uint64_t seed,
                        Tracer* tracer) {
  net::TcpClient& client = *serving.clients[c];
  core::GraphHdEncoder& encoder = *serving.encoders[c];
  const bool packed = client.config().backend == core::Backend::kPackedBinary;
  hdc::Rng pick(hdc::derive_seed(seed, 1000 + c));
  const std::size_t thread = 1 + c;

  struct InFlight {
    std::uint64_t id;
    std::size_t query;
    Clock::time_point due;
    std::size_t spans[2];  ///< core.encode, net.submit.
  };
  std::deque<InFlight> pending;
  PhaseStats stats;

  const auto collect = [&] {
    const InFlight& front = pending.front();
    const auto wait_start = Clock::now();
    const core::Prediction prediction = client.wait(front.id);
    const auto done = Clock::now();
    const bool ok = serving.matches(front.query, prediction);
    stats.record(front.due, ok ? micros_between(front.due, done) : kFailedLatency);
    ++(ok ? stats.ok : stats.failed);
    if (tracer != nullptr) {
      const std::size_t wait = tracer->record(thread, "net.wait", wait_start, done, front.id);
      const std::size_t root = tracer->record(thread, "e2e.remote", front.due, done, front.id);
      tracer->set_parent(thread, wait, root);
      for (const std::size_t span : front.spans) tracer->set_parent(thread, span, root);
    }
    pending.pop_front();
  };

  std::size_t next = 0;
  try {
    while (next < due.size()) {
      if (Clock::now() < due[next]) {
        if (!pending.empty()) {
          collect();
          continue;
        }
        wait_until(due[next]);
      }
      const auto send_start = Clock::now();
      stats.late_us.push_back(micros_between(due[next], send_start));
      const std::size_t query = pick.next_below(serving.queries.size());
      const auto& graph = serving.queries.graph(query);
      std::uint64_t id = 0;
      Clock::time_point encoded;
      if (packed) {
        const auto hv = encoder.encode_packed(graph);
        encoded = Clock::now();
        id = client.submit(hv);
      } else {
        const auto hv = encoder.encode(graph);
        encoded = Clock::now();
        id = client.submit(hv);
      }
      const auto submitted = Clock::now();
      ++stats.sent;
      InFlight request{id, query, due[next], {0, 0}};
      if (tracer != nullptr) {
        // The lateness [due, send_start) is no span of its own: the thread
        // spends it on earlier requests' spans.
        request.spans[0] = tracer->record(thread, "core.encode", send_start, encoded, id);
        request.spans[1] = tracer->record(thread, "net.submit", encoded, submitted, id);
      }
      pending.push_back(request);
      ++next;
    }
    while (!pending.empty()) collect();
  } catch (const net::NetError& error) {
    // The connection is unusable from here on: what is in flight and what
    // was still due all fail.
    std::fprintf(stderr, "perfbench: client %zu: %s (%s)\n", c, error.what(),
                 net::to_string(error.kind()));
    stats.failed += pending.size() + (due.size() - next);
    for (const InFlight& request : pending) stats.record(request.due, kFailedLatency);
    for (; next < due.size(); ++next) stats.record(due[next], kFailedLatency);
  }
  return stats;
}

}  // namespace

void PhaseStats::merge(PhaseStats&& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(), other.latency_us.end());
  due.insert(due.end(), other.due.begin(), other.due.end());
  late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  swaps += other.swaps;
}

double PhaseStats::block_percentile(double q) const {
  constexpr std::size_t kBlock = 1000;
  std::vector<std::size_t> order(latency_us.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return due[a] < due[b]; });
  std::vector<double> per_block;
  // A short tail joins the last full block.
  const std::size_t blocks = std::max<std::size_t>(1, order.size() / kBlock);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t end = b + 1 == blocks ? order.size() : (b + 1) * kBlock;
    std::vector<double> block;
    for (std::size_t k = b * kBlock; k < end; ++k) block.push_back(latency_us[order[k]]);
    per_block.push_back(percentile(std::move(block), q));
  }
  return median(std::move(per_block));
}

const Workload* find_workload(const std::string& name) {
  // A client thread encodes each request and then waits for its answer, so
  // at one request per ~350 us it is busy: ~3000 graphs/s per connection on
  // MUTAG shapes, ~2700 on PROTEINS, ~2300 on DD (4 cores, AVX-512).  The
  // low rate keeps a connection ~15% busy and server batches at one; the
  // high rate 30-40% busy, where requests start to queue behind each other.
  // Both give at least 1000 requests per second of phase, the block size of
  // the tail estimate.
  static const Workload kWorkloads[] = {
      {"train-proteins", "PROTEINS", 1113, Flow::kTrain, 800.0, 2000.0},
      {"train-dd", "DD", 1178, Flow::kTrain, 700.0, 1300.0},
      // Ten times Table I's 188 graphs: with 38 held-out graphs the accuracy
      // moved too much from seed to seed.
      {"serve-mutag", "MUTAG", 1880, Flow::kRemote, 1000.0, 2500.0},
  };
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::unique_ptr<Deployment> set_up(const Workload& workload, std::uint64_t seed,
                                   const std::filesystem::path& directory) {
  auto deployment = std::make_unique<Deployment>();
  Inputs& inputs = deployment->inputs;
  data::SyntheticSpec spec = data::spec_by_name(workload.dataset);
  spec.graphs = workload.graphs;
  const data::GraphDataset replica = data::make_synthetic_replica(spec, seed);
  hdc::Rng split_rng(hdc::derive_seed(seed, "perfbench-split"));
  const data::Split split = data::stratified_split(replica, 0.8, split_rng);
  inputs.name = replica.name();
  inputs.train = replica.subset(split.train);
  inputs.test = replica.subset(split.test);
  inputs.train_dir = directory / "train";
  inputs.test_dir = directory / "test";
  data::save_tudataset(inputs.train, inputs.train_dir);
  data::save_tudataset(inputs.test, inputs.test_dir);

  Serving& serving = deployment->serving;
  const core::GraphHdConfig config{};
  for (std::size_t half = 0; half < 2; ++half) {
    std::vector<std::size_t> members;
    for (std::size_t i = half; i < inputs.train.size(); i += 2) members.push_back(i);
    core::GraphHdModel model(config, inputs.train.num_classes());
    model.fit(inputs.train.subset(members));
    const auto artifact = directory / (half == 0 ? "half-a.ghd" : "half-b.ghd");
    core::save_model(model, artifact);
    serving.snapshots[half] = core::load_snapshot(artifact, core::SnapshotLoad::kMmap);
  }
  serving.server = std::make_unique<graphhd::serve::Server>(serving.snapshots[0]);
  serving.tcp = std::make_unique<net::TcpServer>(*serving.server);
  for (std::size_t c = 0; c < kClients; ++c) {
    serving.clients.push_back(std::make_unique<net::TcpClient>("127.0.0.1", serving.tcp->port()));
    serving.encoders.push_back(
        std::make_unique<core::GraphHdEncoder>(serving.clients.back()->config()));
  }

  // Every client encoder encodes every query once, so the timed phases see
  // warm basis caches, as a long-running `predict --remote` would.
  serving.queries = data::load_tudataset(inputs.test_dir, inputs.name);
  for (std::size_t q = 0; q < serving.queries.size(); ++q) {
    const auto& graph = serving.queries.graph(q);
    serving.packed.push_back(
        hdc::PackedHypervector::from_bipolar(serving.encoders[0]->encode(graph)));
    for (std::size_t c = 1; c < kClients; ++c) {
      if (hdc::PackedHypervector::from_bipolar(serving.encoders[c]->encode(graph)) !=
          serving.packed.back()) {
        throw std::runtime_error("client encoders disagree on query " + std::to_string(q));
      }
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    serving.expected[s] = serving.snapshots[s]->predict_encoded_batch(serving.packed);
  }
  // Handshake check: one synchronous round trip per connection.
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto query = serving.encoders[c]->encode(serving.queries.graph(0));
    const auto answer = serving.clients[c]->predict(query);
    if (!same_prediction(answer, serving.expected[0][0])) {
      throw std::runtime_error("remote answer differs from the served snapshot");
    }
  }
  return deployment;
}

std::vector<core::Prediction> reference_predictions(const Inputs& inputs) {
  core::GraphHdModel model(core::GraphHdConfig{}, inputs.train.num_classes());
  model.fit(inputs.train);
  return model.predict_batch(inputs.test);
}

TrainTimes run_train(const Inputs& inputs, std::vector<core::Prediction>& predictions) {
  TrainTimes times;
  const auto start = Clock::now();
  data::TUDatasetStream train(inputs.train_dir, inputs.name);
  core::GraphHdModel model(core::GraphHdConfig{}, train.num_classes());
  model.fit_stream(train, core::TrainOptions{.chunk = kChunk});
  const auto fitted = Clock::now();
  (void)model.snapshot();
  const auto snapped = Clock::now();
  data::TUDatasetStream test(inputs.test_dir, inputs.name);
  predictions = model.predict_stream(test, core::StreamOptions{.chunk = kChunk});
  const auto predicted = Clock::now();
  times.fit_s = seconds_between(start, fitted);
  times.snapshot_s = seconds_between(fitted, snapped);
  times.predict_s = seconds_between(snapped, predicted);
  return times;
}

double run_train_traced(const Inputs& inputs, Tracer* tracer, std::uint64_t iteration,
                        std::vector<core::Prediction>& predictions) {
  const core::GraphHdConfig config{};
  const auto start = Clock::now();
  predictions.clear();

  const auto open = [&](const char* name) {
    return tracer != nullptr ? tracer->open(0, name, iteration) : Tracer::kNoParent;
  };
  const auto close = [&](std::size_t root) {
    if (tracer != nullptr) tracer->close(0, root);
  };
  const auto span = [&](const char* name, std::size_t parent) {
    return ScopedSpan(tracer, 0, name, iteration, parent);
  };
  const std::size_t train_root = open("e2e.train");
  std::optional<data::TUDatasetStream> train;
  {
    const auto s = span("data.open", train_root);
    train.emplace(inputs.train_dir, inputs.name);
  }
  const std::size_t classes = train->num_classes();
  core::GraphHdEncoder encoder(config);
  hdc::AssociativeMemory memory(config.dimension, classes, config.metric, config.quantized_model);
  for (;;) {
    data::GraphDataset chunk;
    {
      const auto s = span("data.next_chunk", train_root);
      chunk = data::next_chunk(*train, kChunk);
    }
    if (chunk.empty()) break;
    std::vector<hdc::Hypervector> encoded;
    {
      const auto s = span("parallel.encode_dataset", train_root);
      encoded = core::encode_dataset(encoder, chunk);
    }
    const auto s = span("hdc.class_bundle", train_root);
    for (std::size_t i = 0; i < chunk.size(); ++i) memory.add(chunk.label(i), encoded[i]);
  }
  std::shared_ptr<const core::InferenceSnapshot> snapshot;
  {
    const auto s = span("core.snapshot", train_root);
    std::vector<hdc::BundleAccumulator> accumulators;
    std::vector<std::size_t> counts;
    for (std::size_t c = 0; c < classes; ++c) {
      accumulators.push_back(memory.accumulator(c));
      counts.push_back(memory.class_count(c));
    }
    core::GraphHdModel model(config, classes);
    model.restore_state(std::move(accumulators), std::move(counts),
                        std::vector<std::size_t>(classes, 0), /*fitted=*/true);
    snapshot = model.snapshot();
  }
  close(train_root);

  const std::size_t predict_root = open("e2e.predict");
  std::optional<data::TUDatasetStream> test;
  {
    const auto s = span("data.open", predict_root);
    test.emplace(inputs.test_dir, inputs.name);
  }
  for (;;) {
    data::GraphDataset chunk;
    {
      const auto s = span("data.next_chunk", predict_root);
      chunk = data::next_chunk(*test, kChunk);
    }
    if (chunk.empty()) break;
    std::vector<hdc::Hypervector> encoded;
    {
      const auto s = span("parallel.encode_dataset", predict_root);
      encoded = core::encode_dataset(encoder, chunk);
    }
    const auto s = span("core.sweep", predict_root);
    for (const auto& hv : encoded) predictions.push_back(snapshot->predict_encoded(hv));
  }
  close(predict_root);
  return seconds_between(start, Clock::now());
}

PhaseStats run_remote(Serving& serving, double rate, double seconds, std::uint64_t seed,
                      Tracer* tracer) {
  const auto start = Clock::now() + kStartDelay;
  std::vector<std::vector<Clock::time_point>> schedules;
  for (std::size_t c = 0; c < kClients; ++c) {
    hdc::Rng rng(hdc::derive_seed(seed, c));
    schedules.push_back(poisson_schedule(rng, rate / kClients, seconds, start));
  }

  std::vector<PhaseStats> per_client(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  std::atomic<std::size_t> running{kClients};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        per_client[c] = drive_client(serving, c, schedules[c], seed, tracer);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  PhaseStats total;
  try {
    total.swaps = swap_until_done(*serving.server, serving, start, running);
  } catch (...) {
    for (auto& thread : threads) thread.join();
    throw;
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (auto& stats : per_client) total.merge(std::move(stats));
  return total;
}

PhaseStats run_inproc(const Serving& serving, double rate, double seconds, std::uint64_t seed,
                      graphhd::serve::ServerStats& server_stats) {
  hdc::Rng rng(hdc::derive_seed(seed, "perfbench-inproc"));
  const auto start = Clock::now() + kStartDelay;
  const auto due = poisson_schedule(rng, rate, seconds, start);
  std::vector<std::size_t> query(due.size());
  for (auto& q : query) q = rng.next_below(serving.packed.size());
  // Written by the worker's callback, read after shutdown() joined it.  The
  // server is declared after them, so on an exception it drains its queue
  // into them before they go.
  std::vector<Clock::time_point> done(due.size());
  std::vector<char> good(due.size(), 0);
  graphhd::serve::Server server(serving.snapshots[0]);

  std::atomic<std::size_t> running{1};
  std::size_t swaps = 0;
  std::exception_ptr swap_error;
  std::thread swapper([&] {
    try {
      swaps = swap_until_done(server, serving, start, running);
    } catch (...) {
      swap_error = std::current_exception();
    }
  });

  PhaseStats stats;
  try {
    for (std::size_t i = 0; i < due.size(); ++i) {
      wait_until(due[i]);
      stats.late_us.push_back(micros_between(due[i], Clock::now()));
      server.submit(serving.packed[query[i]],
                    [&done, &good, &serving, i, q = query[i]](const core::Prediction& p) {
                      done[i] = Clock::now();
                      good[i] = serving.matches(q, p) ? 1 : 0;
                    });
      ++stats.sent;
    }
    server.shutdown();
  } catch (...) {
    running.store(0, std::memory_order_release);
    swapper.join();
    throw;
  }
  running.store(0, std::memory_order_release);
  swapper.join();
  if (swap_error) std::rethrow_exception(swap_error);

  server_stats = server.stats();
  stats.swaps = swaps;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const bool ok = good[i] != 0;
    stats.record(due[i], ok ? micros_between(due[i], done[i]) : kFailedLatency);
    ++(ok ? stats.ok : stats.failed);
  }
  return stats;
}

}  // namespace perfbench
