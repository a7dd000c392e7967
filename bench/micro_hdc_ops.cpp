/// \file micro_hdc_ops.cpp
/// google-benchmark microbenchmarks of the HDC primitives — the ops whose
/// "dimension-independent, massively parallel" cost profile underpins the
/// paper's efficiency argument (Sections I and III).  Every row times an op
/// the library ships, on packed binary words: the word-level bit
/// parallelism a hardware mapping exploits (Schmuck et al., cited by the
/// paper).

#include <benchmark/benchmark.h>

#include "core/encoder.hpp"
#include "graph/generators.hpp"
#include "hdc/assoc_memory.hpp"
#include "hdc/bitslice.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"

namespace {

using namespace graphhd;

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

void BM_PackedSimilarity(benchmark::State& state) {
  hdc::Rng rng(3);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::PackedHypervector::random(d, rng);
  const auto b = hdc::PackedHypervector::random(d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::similarity(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_PackedSimilarity)->Arg(1024)->Arg(10000)->Arg(65536);

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

void BM_BitsliceAddBound(benchmark::State& state) {
  hdc::Rng rng(5);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = hdc::PackedHypervector::random(d, rng);
  const auto b = hdc::PackedHypervector::random(d, rng);
  hdc::BitsliceBundler bundler(d);
  for (auto _ : state) {
    bundler.add_bound(a, b);  // the GraphHD edge-encoding hot loop
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_BitsliceAddBound)->Arg(1024)->Arg(10000)->Arg(65536);

void BM_EncodeGraph(benchmark::State& state) {
  // Full GraphHD encoding of one ER graph (PageRank + bind/bundle).
  const auto n = static_cast<std::size_t>(state.range(0));
  hdc::Rng rng(6);
  const auto g = graph::erdos_renyi(n, 0.05, rng);
  core::GraphHdConfig config;
  core::GraphHdEncoder encoder(config);
  (void)encoder.encode_packed(g);  // warm the basis cache outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_packed(g));
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
    memory.add(c, hdc::PackedHypervector::random(10000, rng));
  }
  memory.finalize();
  const auto query = hdc::PackedHypervector::random(10000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.query(query));
  }
}
BENCHMARK(BM_AssociativeQuery)->Arg(2)->Arg(6)->Arg(32);

}  // namespace
