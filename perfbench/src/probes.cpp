#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <span>
#include <vector>

#include "core/encoder.hpp"
#include "graph/pagerank.hpp"
#include "hdc/random.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/net/wire.hpp"

namespace perfbench {

namespace core = graphhd::core;
namespace hdc = graphhd::hdc;
namespace net = graphhd::serve::net;

namespace {

constexpr int kRepeats = 7;

[[nodiscard]] double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

[[nodiscard]] double mean_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : mean(values);
}

/// Median wall time in ms of `repeats` calls of `work`.
template <typename Work>
[[nodiscard]] double median_ms(int repeats, Work&& work) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    work();
    ms.push_back(1e3 * seconds_between(start, Clock::now()));
  }
  return median(std::move(ms));
}

}  // namespace

void measure_layers(Deployment& deployment, const Workload& workload, std::uint64_t seed,
                    double seconds, const std::filesystem::path& trace_file, Metrics& metrics,
                    Tally& tally) {
  const core::GraphHdConfig config{};
  const Inputs& inputs = deployment.inputs;
  Serving& serving = deployment.serving;
  const auto reference = reference_predictions(inputs);
  Tracer tracer(1 + kClients);

  // Train flow: the real calls, then their per-layer decomposition without
  // and with spans, alternated so all three see the same machine state.  The
  // decomposition's traced / untraced time ratio is the tracing overhead.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> snapshot_us;
  std::vector<core::Prediction> predictions;
  const auto train_start = Clock::now();
  while (traced_s.size() < 3 || seconds_between(train_start, Clock::now()) < 0.4 * seconds) {
    const TrainTimes times = run_train(inputs, predictions);
    tally.check(predictions, reference);
    snapshot_us.push_back(1e6 * times.snapshot_s);
    untraced_s.push_back(run_train_traced(inputs, nullptr, 0, predictions));
    tally.check(predictions, reference);
    traced_s.push_back(run_train_traced(inputs, &tracer, traced_s.size(), predictions));
    tally.check(predictions, reference);
  }
  const auto iterations = static_cast<double>(traced_s.size());
  const auto train_graphs = static_cast<double>(inputs.train.size());
  const auto parsed_graphs = iterations * (train_graphs + static_cast<double>(inputs.test.size()));
  const double parse_us =
      sum(tracer.durations_us("data.open")) + sum(tracer.durations_us("data.next_chunk"));
  metrics.set("data.parse_us_per_graph", parse_us / parsed_graphs, "us");

  // Per graph, one thread, warm encoder: ranking alone, then the whole
  // encode (which ranks again, then binds and bundles).
  core::GraphHdEncoder encoder(config);
  for (const auto& graph : inputs.train.graphs()) (void)encoder.encode(graph);
  std::vector<double> rank_us;
  std::vector<double> encode_us;
  std::vector<double> even_us;
  std::vector<double> odd_us;
  std::vector<double> bind_bundle_us;
  for (const auto& graph : inputs.train.graphs()) {
    const auto start = Clock::now();
    const auto ranks = graphhd::graph::pagerank_ranks(graph, config.pagerank_options());
    const auto ranked = Clock::now();
    const auto encoded = encoder.encode(graph);
    const auto done = Clock::now();
    if (ranks.size() != graph.num_vertices() || encoded.dimension() != config.dimension) {
      ++tally.failed;
    }
    rank_us.push_back(micros_between(start, ranked));
    encode_us.push_back(micros_between(ranked, done));
    (graph.num_edges() % 2 == 0 ? even_us : odd_us).push_back(encode_us.back());
    bind_bundle_us.push_back(encode_us.back() - rank_us.back());
  }
  metrics.set("graph.rank_us_per_graph", mean(rank_us), "us");

  const double encoder_build_us = 1e3 * median_ms(kRepeats, [&] {
    core::GraphHdEncoder fresh(config);
    (void)fresh.encode(inputs.train.graph(0));
  });
  metrics.set("core.encoder_build_us", encoder_build_us, "us");
  metrics.set("core.encode_us_per_graph", mean(encode_us), "us");
  metrics.set("core.encode_even_m_us", mean_or_zero(even_us), "us");
  metrics.set("core.encode_odd_m_us", mean_or_zero(odd_us), "us");
  metrics.set("core.even_m_time_share", sum(even_us) / sum(encode_us), "fraction");
  metrics.set("hdc.bind_bundle_us_per_graph", mean(bind_bundle_us), "us");
  metrics.set("hdc.class_bundle_us_per_graph",
              sum(tracer.durations_us("hdc.class_bundle")) / (iterations * train_graphs), "us");

  // One streaming chunk through the pool at 1 thread and at kPoolThreads.
  std::vector<std::size_t> first(std::min(kChunk, inputs.train.size()));
  std::iota(first.begin(), first.end(), std::size_t{0});
  const auto chunk = inputs.train.subset(first);
  const auto chunk_ms = [&](std::size_t threads) {
    graphhd::parallel::set_threads(threads);
    return median_ms(kRepeats, [&] { (void)core::encode_dataset(encoder, chunk); });
  };
  const double one_thread_ms = chunk_ms(1);
  const double pool_ms = chunk_ms(kPoolThreads);
  metrics.set("parallel.chunk_encode_1t_ms", one_thread_ms, "ms");
  metrics.set("parallel.chunk_encode_4t_ms", pool_ms, "ms");
  metrics.set("parallel.chunk_encode_speedup", one_thread_ms / pool_ms, "ratio");

  metrics.set("core.snapshot_build_us", median(snapshot_us), "us");

  // Class sweep over every held-out query at once.
  const auto& snapshot = *serving.snapshots[0];
  tally.check(snapshot.predict_encoded_batch(serving.packed), serving.expected[0]);
  std::vector<double> sweep_ns;
  const auto sweep_start = Clock::now();
  while (sweep_ns.size() < 5 || seconds_between(sweep_start, Clock::now()) < 0.1) {
    const auto start = Clock::now();
    (void)snapshot.predict_encoded_batch(serving.packed);
    sweep_ns.push_back(1e3 * micros_between(start, Clock::now()) /
                       static_cast<double>(serving.packed.size()));
  }
  metrics.set("core.sweep_ns_per_query", median(sweep_ns), "ns");

  // In-process serving: pre-encoded queries without sockets, at rates of its
  // own (the remote phase's are bounded by the clients' encode time).
  const double phase_seconds = std::max(1.0, 0.1 * seconds);
  std::size_t swaps = 0;
  struct Rate {
    const char* name;
    double rate;
  };
  const Rate inproc_rates[] = {{"low", kInprocLowRate}, {"high", kInprocHighRate}};
  for (const auto& [name, rate] : inproc_rates) {
    graphhd::serve::ServerStats stats;
    const PhaseStats phase =
        run_inproc(serving, rate, phase_seconds, hdc::derive_seed(seed, name), stats);
    tally.add(phase);
    swaps += phase.swaps;
    const std::string prefix = std::string("serve.") + name;
    metrics.set(prefix + "_p50_us", percentile(phase.latency_us, 0.50), "us");
    metrics.set(prefix + "_p99_us", phase.block_percentile(0.99), "us");
    const auto batches = std::max<std::uint64_t>(1, stats.batches);
    metrics.set(prefix + "_mean_batch",
                static_cast<double>(stats.requests) / static_cast<double>(batches), "count");
    metrics.set(prefix + "_max_batch", static_cast<double>(stats.max_batch), "count");
  }
  metrics.set("serve.swaps", static_cast<double>(swaps), "count");

  // Wire frames of the payloads the remote clients send and receive.
  std::vector<hdc::Hypervector> dense;
  for (const auto& graph : serving.queries.graphs()) dense.push_back(encoder.encode(graph));
  std::vector<std::vector<std::uint8_t>> frames(dense.size());
  const auto body = [&](std::size_t q) { return std::span(frames[q]).subspan(4); };
  const double encode_ms = median_ms(kRepeats, [&] {
    for (std::size_t q = 0; q < dense.size(); ++q) {
      frames[q] = net::encode_request_frame(q + 1, dense[q]);
    }
  });
  const double decode_ms = median_ms(kRepeats, [&] {
    for (std::size_t q = 0; q < frames.size(); ++q) (void)net::decode_frame(body(q));
  });
  for (std::size_t q = 0; q < frames.size(); ++q) {
    const net::RequestFrame request = net::decode_frame(body(q)).request;
    ++tally.attempted;
    if (request.request_id != q + 1 || request.dense.size() != config.dimension) ++tally.failed;
  }
  const auto per_frame_ns = [&](double ms) {
    return 1e6 * ms / static_cast<double>(frames.size());
  };
  metrics.set("net.frame_encode_ns", per_frame_ns(encode_ms), "ns");
  metrics.set("net.frame_decode_ns", per_frame_ns(decode_ms), "ns");
  metrics.set("net.request_bytes", static_cast<double>(frames.front().size()), "bytes");
  metrics.set("net.response_bytes",
              static_cast<double>(net::encode_response_frame(1, serving.expected[0][0]).size()),
              "bytes");

  // Remote flow with spans around each client call.
  const Rate remote_rates[] = {{"low", workload.low_rate}, {"high", workload.high_rate}};
  for (const auto& [name, rate] : remote_rates) {
    const auto phase_seed = hdc::derive_seed(seed, std::string("traced-") + name);
    const PhaseStats phase = run_remote(serving, rate, phase_seconds, phase_seed, &tracer);
    tally.add(phase);
    metrics.set(std::string("remote.") + name + "_p95_us", phase.block_percentile(0.95), "us");
    metrics.set(std::string("loadgen.") + name + "_late_p99_us", percentile(phase.late_us, 0.99),
                "us");
  }
  tally.failed += serving.tcp->stats().protocol_errors;
  metrics.set("net.submit_us", median(tracer.durations_us("net.submit")), "us");
  const auto waits = tracer.durations_us("net.wait");
  metrics.set("net.wait_p50_us", percentile(waits, 0.50), "us");
  metrics.set("net.wait_p99_us", percentile(waits, 0.99), "us");

  // Attribution of each flow's root time to the layers its spans cover.
  const auto train_shares = tracer.layer_shares(0, 1);
  const auto remote_shares = tracer.layer_shares(1, 1 + kClients);
  const auto share = [](const std::map<std::string, double>& shares, const char* layer) {
    const auto found = shares.find(layer);
    return found == shares.end() ? 0.0 : found->second;
  };
  for (const char* layer : {"data", "parallel", "hdc", "core"}) {
    metrics.set(std::string("train.") + layer + "_share", share(train_shares, layer), "fraction");
  }
  for (const char* layer : {"core", "net"}) {
    metrics.set(std::string("remote.") + layer + "_share", share(remote_shares, layer), "fraction");
  }
  metrics.set("trace.unattributed_share", tracer.unattributed_share(), "fraction");
  metrics.set("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0, "fraction");

  tracer.write(trace_file);
  std::fprintf(stderr, "perfbench: spans written to %s\n", trace_file.string().c_str());
}

}  // namespace perfbench
