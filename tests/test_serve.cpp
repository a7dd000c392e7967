/// Tests for the batching inference server (src/serve/): the lock-free
/// request queue, serve-vs-direct bit-identity across backends and scoring
/// modes, the coalesced batch sweep, concurrent clients, hot swap under live
/// traffic (compatible and incompatible), and graceful drain on shutdown.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "hdc/random.hpp"
#include "serve/queue.hpp"
#include "support/proptest.hpp"

namespace {

using namespace graphhd::core;
using graphhd::data::GraphDataset;
using graphhd::graph::cycle_graph;
using graphhd::graph::path_graph;
using graphhd::graph::star_graph;
using graphhd::serve::BoundedMpmcQueue;
using graphhd::serve::Server;
using graphhd::serve::ServerConfig;
namespace hdc = graphhd::hdc;
namespace proptest = graphhd::proptest;

GraphHdConfig base_config() {
  GraphHdConfig config;
  config.dimension = 256;
  config.seed = 0x5e21;
  config.backend = Backend::kPackedBinary;
  return config;
}

GraphDataset toy_dataset(std::size_t per_class, bool swapped_labels = false) {
  GraphDataset dataset("toy", {}, {});
  for (std::size_t i = 0; i < per_class; ++i) {
    dataset.add(star_graph(8 + i % 4), swapped_labels ? 1 : 0);
    dataset.add(cycle_graph(8 + i % 4), swapped_labels ? 0 : 1);
    dataset.add(path_graph(8 + i % 4), 2);
  }
  return dataset;
}

GraphHdModel trained_model(const GraphHdConfig& config, bool swapped_labels = false) {
  GraphHdModel model(config, 3);
  model.fit(toy_dataset(6, swapped_labels));
  return model;
}

std::vector<graphhd::graph::Graph> probe_graphs() {
  std::vector<graphhd::graph::Graph> probes;
  for (std::size_t i = 0; i < 6; ++i) {
    probes.push_back(star_graph(7 + i));
    probes.push_back(cycle_graph(7 + i));
  }
  return probes;
}

void expect_predictions_equal(const Prediction& a, const Prediction& b, const char* what) {
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(a.score, b.score) << what;  // bit-identical doubles, not approximate.
  EXPECT_EQ(a.class_scores, b.class_scores) << what;
}

bool predictions_equal(const Prediction& a, const Prediction& b) {
  return a.label == b.label && a.score == b.score && a.class_scores == b.class_scores;
}

// ---------------------------------------------------------------------------
// The lock-free ring.
// ---------------------------------------------------------------------------

TEST(ServeQueue, RoundsCapacityUpToAPowerOfTwo) {
  EXPECT_EQ(BoundedMpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedMpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(BoundedMpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(BoundedMpmcQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(BoundedMpmcQueue<int>(65).capacity(), 128u);
  EXPECT_THROW(BoundedMpmcQueue<int>(0), std::invalid_argument);
}

TEST(ServeQueue, RejectsCapacitiesWhoseRoundUpWouldOverflow) {
  // Above the largest representable power of two the round-up loop used to
  // shift the candidate to 0 and spin forever; the constructor must reject
  // instead (nobody can allocate such a ring anyway).
  constexpr std::size_t kMax = std::size_t{1}
                               << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_THROW(BoundedMpmcQueue<int>(kMax + 1), std::invalid_argument);
  EXPECT_THROW(BoundedMpmcQueue<int>(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
  // The boundary itself is representable — it must still be accepted (the
  // allocation is absurd, so only the validation path is exercised via the
  // throw cases above; kMax - 1 rounds *to* kMax and is equally absurd).
  EXPECT_NO_THROW(BoundedMpmcQueue<int>(2));
}

TEST(ServeQueue, IsFifoAndBoundedSerially) {
  BoundedMpmcQueue<int> queue(4);
  int out = 0;
  EXPECT_FALSE(queue.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(int{i}));
  EXPECT_FALSE(queue.try_push(99));  // full: bounded, value rejected.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO order.
  }
  EXPECT_FALSE(queue.try_pop(out));
  // Wrap-around: the ring stays usable after a full lap.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.try_push(lap * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST(ServeQueue, DeliversEveryItemExactlyOnceUnderContention) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kPerProducer = 5000;
  BoundedMpmcQueue<std::size_t> queue(64);  // small ring: forces full/empty races.

  std::atomic<std::size_t> consumed{0};
  std::vector<std::atomic<std::uint32_t>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        std::size_t value = p * kPerProducer + i;
        while (!queue.try_push(std::move(value))) std::this_thread::yield();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::size_t value = 0;
      while (consumed.load() < kProducers * kPerProducer) {
        if (queue.try_pop(value)) {
          seen[value].fetch_add(1);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  for (std::size_t v = 0; v < seen.size(); ++v) {
    ASSERT_EQ(seen[v].load(), 1u) << "item " << v << " delivered a wrong number of times";
  }
}

// ---------------------------------------------------------------------------
// The coalesced batch sweep.
// ---------------------------------------------------------------------------

struct BatchCase {
  std::size_t dimension;
  std::size_t queries;
  std::uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const BatchCase& c) {
    return os << "dimension=" << c.dimension << " queries=" << c.queries << " seed=" << c.seed;
  }
};

TEST(ServeBatch, CoalescedSweepIsBitIdenticalToPerQueryPredictions) {
  using Case = BatchCase;
  proptest::check<Case>(
      "predict_encoded_batch == per-query predict_encoded, any dimension/batch",
      [](hdc::Rng& rng, std::size_t index) {
        // First cases pin the boundary dimensions (word-aligned, odd tail).
        static constexpr std::size_t kPinned[] = {64, 65, 130, 512};
        const std::size_t dimension = index < std::size(kPinned)
                                          ? kPinned[index]
                                          : 1 + rng.next_below(400);
        return Case{dimension, 1 + rng.next_below(70), rng()};
      },
      [](const Case& c) {
        std::vector<Case> simpler;
        if (c.queries > 1) simpler.push_back({c.dimension, c.queries / 2, c.seed});
        if (c.dimension > 64) simpler.push_back({c.dimension / 2, c.queries, c.seed});
        return simpler;
      },
      [](const Case& c, std::ostream& diag) {
        diag << c;
        GraphHdConfig config = base_config();
        config.dimension = c.dimension;
        auto model = trained_model(config);
        const auto snapshot = model.snapshot();

        hdc::Rng rng(c.seed);
        std::vector<hdc::PackedHypervector> queries;
        queries.reserve(c.queries);
        for (std::size_t q = 0; q < c.queries; ++q) {
          queries.push_back(hdc::PackedHypervector::random(c.dimension, rng));
        }
        const auto batched = snapshot->predict_encoded_batch(queries);
        if (batched.size() != c.queries) return false;
        for (std::size_t q = 0; q < c.queries; ++q) {
          if (!predictions_equal(batched[q], snapshot->predict_encoded(queries[q]))) {
            diag << "\nquery " << q << " diverged";
            return false;
          }
        }
        return true;
      },
      proptest::Config{.cases = 12});
}

TEST(ServeBatch, CounterScoringBatchesMatchSingleQueriesAndWrongDimensionsThrow) {
  GraphHdConfig raw = base_config();
  raw.backend = Backend::kDenseBipolar;
  raw.quantized_model = false;
  auto model = trained_model(raw);
  const auto snapshot = model.snapshot();
  GraphHdEncoder encoder(raw);
  std::vector<hdc::PackedHypervector> queries;
  for (const auto& graph : probe_graphs()) queries.push_back(encoder.encode_packed(graph));
  const auto batch = snapshot->predict_encoded_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_predictions_equal(batch[q], snapshot->predict_encoded(queries[q]),
                             "counter-scoring batch vs single query");
  }

  hdc::Rng rng(7);
  auto quantized = trained_model(base_config());
  const std::vector<hdc::PackedHypervector> wrong{hdc::PackedHypervector::random(128, rng)};
  EXPECT_THROW((void)quantized.snapshot()->predict_encoded_batch(wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Serve == direct predictions.
// ---------------------------------------------------------------------------

TEST(Serve, MatchesDirectPredictionsAcrossBackendsAndScoringModes) {
  std::vector<GraphHdConfig> configs;
  configs.push_back(base_config());  // packed backend.
  {
    GraphHdConfig dense = base_config();
    dense.backend = Backend::kDenseBipolar;
    configs.push_back(dense);  // dense quantized.
    dense.quantized_model = false;
    configs.push_back(dense);  // dense counter-scoring.
    dense.quantized_model = true;
    dense.vectors_per_class = 2;
    configs.push_back(dense);  // multiple prototypes.
  }

  const auto probes = probe_graphs();
  for (const auto& config : configs) {
    SCOPED_TRACE(std::string(to_string(config.backend)) +
                 (config.quantized_model ? " quantized" : " raw") + " vpc=" +
                 std::to_string(config.vectors_per_class));
    auto model = trained_model(config);
    const auto snapshot = model.snapshot();
    GraphHdEncoder encoder(config);

    Server server(snapshot);
    for (const auto& graph : probes) {
      const auto encoded = encoder.encode_packed(graph);
      expect_predictions_equal(server.submit(encoded).get(), snapshot->predict_encoded(encoded),
                               "single round trip");
    }
    // Pipelined submission: all futures in flight at once, then collected.
    std::vector<std::future<Prediction>> futures;
    futures.reserve(probes.size());
    for (const auto& graph : probes) futures.push_back(server.submit(encoder.encode_packed(graph)));
    for (std::size_t i = 0; i < probes.size(); ++i) {
      expect_predictions_equal(futures[i].get(),
                               snapshot->predict_encoded(encoder.encode_packed(probes[i])),
                               "pipelined future");
    }
  }
}

TEST(Serve, ConvertsCrossRepresentationSubmissionsExactly) {
  // Requests are packed words whatever the scoring: a counter-scoring server
  // scores them with the counter cosine, and a dense query packed with
  // from_bipolar (what TcpServer does with a dense frame) answers exactly
  // like the dense query on the snapshot.
  auto packed_model = trained_model(base_config());
  const auto packed_snapshot = packed_model.snapshot();
  GraphHdConfig raw = base_config();
  raw.backend = Backend::kDenseBipolar;
  raw.quantized_model = false;
  auto raw_model = trained_model(raw);
  const auto raw_snapshot = raw_model.snapshot();

  GraphHdEncoder packed_encoder(packed_model.config());
  GraphHdEncoder raw_encoder(raw_model.config());
  Server packed_server(packed_snapshot);
  Server raw_server(raw_snapshot);
  for (const auto& graph : probe_graphs()) {
    const auto dense_for_packed = packed_encoder.encode(graph);
    expect_predictions_equal(
        packed_server.submit(hdc::PackedHypervector::from_bipolar(dense_for_packed)).get(),
        packed_snapshot->predict_encoded(dense_for_packed), "dense query on packed-scoring server");
    const auto dense_for_raw = raw_encoder.encode(graph);
    expect_predictions_equal(
        raw_server.submit(hdc::PackedHypervector::from_bipolar(dense_for_raw)).get(),
        raw_snapshot->predict_encoded(dense_for_raw), "dense query on counter-scoring server");
    const auto packed_for_raw = raw_encoder.encode_packed(graph);
    expect_predictions_equal(raw_server.submit(packed_for_raw).get(),
                             raw_snapshot->predict_encoded(packed_for_raw),
                             "packed query on counter-scoring server");
  }
}

TEST(Serve, CallbacksDeliverTheSamePredictions) {
  auto model = trained_model(base_config());
  const auto snapshot = model.snapshot();
  GraphHdEncoder encoder(model.config());
  Server server(snapshot);

  const auto probes = probe_graphs();
  std::vector<Prediction> results(probes.size());
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < probes.size(); ++i) {
    server.submit(encoder.encode_packed(probes[i]),
                  [&results, &done, i](const Prediction& prediction) {
                    results[i] = prediction;
                    done.fetch_add(1, std::memory_order_release);
                  });
  }
  while (done.load(std::memory_order_acquire) < probes.size()) std::this_thread::yield();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    expect_predictions_equal(results[i],
                             snapshot->predict_encoded(encoder.encode_packed(probes[i])),
                             "callback result");
  }
}

TEST(Serve, ConcurrentClientsEachGetTheirOwnAnswers) {
  auto model = trained_model(base_config());
  const auto snapshot = model.snapshot();
  Server server(snapshot, ServerConfig{.max_batch = 16, .worker_threads = 2});

  const auto probes = probe_graphs();
  std::vector<Prediction> expected;
  expected.reserve(probes.size());
  GraphHdEncoder reference(model.config());
  for (const auto& graph : probes) {
    expected.push_back(snapshot->predict_encoded(reference.encode_packed(graph)));
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kReps = 40;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One encoder per thread, the documented pattern.
      GraphHdEncoder encoder(server.snapshot()->config());
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        const std::size_t p = (t + rep) % probes.size();
        if (!predictions_equal(server.submit(encoder.encode_packed(probes[p])).get(),
                               expected[p])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kThreads * kReps);
  EXPECT_LE(stats.max_batch, 16u);
  EXPECT_GE(stats.batches, (kThreads * kReps + 15) / 16);
}

// ---------------------------------------------------------------------------
// Hot swap under load.
// ---------------------------------------------------------------------------

TEST(Serve, HotSwapUnderLoadServesExactlyOneOfTheTwoModels) {
  const GraphHdConfig config = base_config();
  auto model_a = trained_model(config, /*swapped_labels=*/false);
  auto model_b = trained_model(config, /*swapped_labels=*/true);
  const auto snapshot_a = model_a.snapshot();
  const auto snapshot_b = model_b.snapshot();

  // Pre-encode the probes once; expected answers under both models.
  GraphHdEncoder encoder(config);
  std::vector<hdc::PackedHypervector> probes;
  std::vector<Prediction> expected_a;
  std::vector<Prediction> expected_b;
  for (const auto& graph : probe_graphs()) {
    probes.push_back(encoder.encode_packed(graph));
    expected_a.push_back(snapshot_a->predict_encoded(probes.back()));
    expected_b.push_back(snapshot_b->predict_encoded(probes.back()));
  }
  // The scenario only proves something if the models actually disagree.
  bool models_differ = false;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (!predictions_equal(expected_a[i], expected_b[i])) models_differ = true;
  }
  ASSERT_TRUE(models_differ) << "fixture models must disagree on some probe";

  Server server(snapshot_a, ServerConfig{.max_batch = 8, .worker_threads = 2});

  // An encoder-incompatible snapshot (different seed) to throw at the
  // server mid-traffic: the swap must be rejected without disturbing it.
  GraphHdConfig reseeded = config;
  reseeded.seed ^= 0xdead;
  auto incompatible = trained_model(reseeded);
  const auto snapshot_incompatible = incompatible.snapshot();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kReps = 150;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> clients_done{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        const std::size_t p = (t + rep) % probes.size();
        const Prediction prediction = server.submit(probes[p]).get();
        // Every response must be one model or the other — never a mixture.
        if (!predictions_equal(prediction, expected_a[p]) &&
            !predictions_equal(prediction, expected_b[p])) {
          wrong.fetch_add(1);
        }
      }
      clients_done.fetch_add(1);
    });
  }
  // Swap back and forth while the clients hammer the server, interleaving a
  // rejected incompatible swap on every lap; keep going (at least 8 laps)
  // until every client finished, so swaps genuinely overlap live traffic.
  std::size_t swaps = 0;
  while (clients_done.load() < kThreads || swaps < 8) {
    server.swap(swaps % 2 == 0 ? snapshot_b : snapshot_a);
    ++swaps;
    EXPECT_THROW(server.swap(snapshot_incompatible), std::invalid_argument);
    std::this_thread::yield();
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(server.stats().swaps, 8u);
  EXPECT_EQ(server.stats().requests, kThreads * kReps);
  // The rejected swaps never landed: the server still serves A or B.
  const auto post = server.submit(probes[0]).get();
  EXPECT_TRUE(predictions_equal(post, expected_a[0]) || predictions_equal(post, expected_b[0]));
}

TEST(Serve, SwapValidatesItsReplacement) {
  auto model = trained_model(base_config());
  Server server(model.snapshot());

  EXPECT_THROW(server.swap(nullptr), std::invalid_argument);

  GraphHdConfig narrower = base_config();
  narrower.dimension = 128;  // a different encoding space.
  auto narrow = trained_model(narrower);
  EXPECT_THROW(server.swap(narrow.snapshot()), std::invalid_argument);

  GraphHdConfig reseeded = base_config();
  reseeded.seed ^= 1;
  auto other = trained_model(reseeded);
  EXPECT_THROW(server.swap(other.snapshot()), std::invalid_argument);

  // The failed swaps left the original snapshot in place.
  EXPECT_EQ(server.snapshot()->config().seed, base_config().seed);
  EXPECT_EQ(server.snapshot()->dimension(), base_config().dimension);

  // quantized_model is not pinned: a server hot-swaps between a quantized
  // and a counter-scoring snapshot, and every answer comes from one of them.
  GraphHdConfig dense = base_config();
  dense.backend = Backend::kDenseBipolar;
  auto quantized_model = trained_model(dense);
  GraphHdConfig raw = dense;
  raw.quantized_model = false;
  auto raw_model = trained_model(raw, /*swapped_labels=*/true);
  const auto quantized = quantized_model.snapshot();
  const auto counters = raw_model.snapshot();
  GraphHdEncoder encoder(dense);
  std::vector<hdc::PackedHypervector> queries;
  for (const auto& graph : probe_graphs()) queries.push_back(encoder.encode_packed(graph));
  const auto expected_quantized = quantized->predict_encoded_batch(queries);
  const auto expected_counters = counters->predict_encoded_batch(queries);

  Server mixed(quantized, ServerConfig{.max_batch = 4});
  std::vector<std::future<Prediction>> futures;
  std::vector<std::size_t> sent;
  for (std::size_t round = 0; round < 8; ++round) {
    mixed.swap(round % 2 == 0 ? counters : quantized);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      futures.push_back(mixed.submit(queries[q]));
      sent.push_back(q);
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction answer = futures[i].get();
    EXPECT_TRUE(predictions_equal(answer, expected_counters[sent[i]]) ||
                predictions_equal(answer, expected_quantized[sent[i]]))
        << "answer " << i << " matches neither snapshot";
  }
  EXPECT_EQ(mixed.stats().swaps, 8u);
  // A request submitted after a swap returns is served by the new snapshot.
  for (const auto& [next, expected] :
       {std::pair{counters, &expected_counters}, std::pair{quantized, &expected_quantized}}) {
    mixed.swap(next);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_predictions_equal(mixed.submit(queries[q]).get(), (*expected)[q],
                               "the snapshot swapped in last");
    }
  }
}

// ---------------------------------------------------------------------------
// Shutdown and validation.
// ---------------------------------------------------------------------------

TEST(Serve, ShutdownDrainsEveryAcceptedRequest) {
  auto model = trained_model(base_config());
  const auto snapshot = model.snapshot();
  GraphHdEncoder encoder(model.config());

  const auto probes = probe_graphs();
  Server server(snapshot, ServerConfig{.max_batch = 4});
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 48; ++i) {
    futures.push_back(server.submit(encoder.encode_packed(probes[i % probes.size()])));
  }
  server.shutdown();
  EXPECT_TRUE(server.stopped());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto expected =
        snapshot->predict_encoded(encoder.encode_packed(probes[i % probes.size()]));
    expect_predictions_equal(futures[i].get(), expected, "drained after shutdown");
  }
  EXPECT_EQ(server.stats().requests, futures.size());

  EXPECT_THROW((void)server.submit(encoder.encode_packed(probes[0])), std::runtime_error);
  server.shutdown();  // idempotent.
}

TEST(Serve, ValidatesConstructionAndSubmissions) {
  EXPECT_THROW(Server(nullptr), std::invalid_argument);

  auto model = trained_model(base_config());
  EXPECT_THROW(Server(model.snapshot(), ServerConfig{.queue_capacity = 0}),
               std::invalid_argument);
  EXPECT_THROW(Server(model.snapshot(), ServerConfig{.max_batch = 0}), std::invalid_argument);
  EXPECT_THROW(Server(model.snapshot(), ServerConfig{.worker_threads = 0}),
               std::invalid_argument);

  Server server(model.snapshot());
  hdc::Rng rng(3);
  EXPECT_THROW((void)server.submit(hdc::PackedHypervector::random(64, rng)),
               std::invalid_argument);
  EXPECT_THROW(server.submit(hdc::PackedHypervector::random(64, rng), [](const Prediction&) {}),
               std::invalid_argument);
  EXPECT_THROW(server.submit(hdc::PackedHypervector::random(256, rng), Server::Callback{}),
               std::invalid_argument);
}

TEST(Serve, AThrowingCallbackDoesNotKillTheServer) {
  auto model = trained_model(base_config());
  GraphHdEncoder encoder(model.config());
  Server server(model.snapshot());

  std::atomic<bool> fired{false};
  server.submit(encoder.encode_packed(star_graph(9)), [&fired](const Prediction&) {
    fired.store(true);
    throw std::runtime_error("misbehaving callback");
  });
  while (!fired.load()) std::this_thread::yield();
  // The worker survived the throw: later requests still complete.
  const auto after = server.submit(encoder.encode_packed(cycle_graph(9))).get();
  EXPECT_EQ(after.class_scores.size(), 3u);
}

}  // namespace
