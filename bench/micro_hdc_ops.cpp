/// \file micro_hdc_ops.cpp
/// google-benchmark microbenchmarks of the HDC primitives — the ops whose
/// "dimension-independent, massively parallel" cost profile underpins the
/// paper's efficiency argument (Sections I and III).  The packed-binary
/// variants show the word-level bit parallelism a hardware mapping exploits
/// (Schmuck et al., cited by the paper).

#include <benchmark/benchmark.h>

#include "core/encoder.hpp"
#include "graph/generators.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"

namespace {

using namespace graphhd;

void BM_BipolarBind(benchmark::State& state) {
  hdc::Rng rng(1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::Hypervector::random(d, rng);
  const auto b = hdc::Hypervector::random(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.bind(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_BipolarBind)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_PackedBind(benchmark::State& state) {
  hdc::Rng rng(2);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::PackedHypervector::random(d, rng);
  const auto b = hdc::PackedHypervector::random(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.bind(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_PackedBind)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_BipolarCosine(benchmark::State& state) {
  hdc::Rng rng(3);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::Hypervector::random(d, rng);
  const auto b = hdc::Hypervector::random(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.cosine(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_BipolarCosine)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_PackedHamming(benchmark::State& state) {
  hdc::Rng rng(4);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::PackedHypervector::random(d, rng);
  const auto b = hdc::PackedHypervector::random(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming_distance(b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_PackedHamming)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_BundleAccumulate(benchmark::State& state) {
  hdc::Rng rng(5);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::Hypervector::random(d, rng);
  const auto b = hdc::Hypervector::random(d, rng);
  hdc::BundleAccumulator acc(d);
  for (auto _ : state) {
    acc.add_bound(a, b);  // the GraphHD edge-encoding hot loop
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_BundleAccumulate)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_EncodeGraph(benchmark::State& state) {
  // Full GraphHD encoding of one ER graph (PageRank + bind/bundle).
  const auto n = static_cast<std::size_t>(state.range(0));
  hdc::Rng rng(6);
  const auto g = graph::erdos_renyi(n, 0.05, rng);
  core::GraphHdConfig config;
  core::GraphHdEncoder encoder(config);
  (void)encoder.encode(g);  // warm the basis cache outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EncodeGraph)->Arg(30)->Arg(100)->Arg(300)->Arg(980);

void BM_AssociativeQuery(benchmark::State& state) {
  const auto classes = static_cast<std::size_t>(state.range(0));
  hdc::Rng rng(7);
  hdc::AssociativeMemory memory(10000, classes);
  for (std::size_t c = 0; c < classes; ++c) {
    memory.add(c, hdc::Hypervector::random(10000, rng));
  }
  memory.finalize();
  const auto query = hdc::Hypervector::random(10000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.query(query));
  }
}
BENCHMARK(BM_AssociativeQuery)->Arg(2)->Arg(6)->Arg(32);

}  // namespace
