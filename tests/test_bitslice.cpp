#include "hdc/bitslice.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/encoder.hpp"
#include "graph/generators.hpp"
#include "support/dense_reference.hpp"

namespace {

using namespace graphhd::hdc;
using graphhd::testsupport::DenseAccumulator;
using graphhd::testsupport::random_bipolar;

TEST(BitsliceBundler, RejectsZeroDimension) {
  EXPECT_THROW(BitsliceBundler bundler(0), std::invalid_argument);
}

TEST(BitsliceBundler, SingleAddThresholdsToInput) {
  Rng rng(3);
  const auto hv = random_bipolar(500, rng);
  BitsliceBundler bundler(500);
  bundler.add(PackedHypervector::from_bipolar(hv));
  EXPECT_EQ(bundler.threshold_packed({}), PackedHypervector::from_bipolar(hv));
  EXPECT_EQ(bundler.count(), 1u);
}

TEST(BitsliceBundler, NegativeCountsMatchBruteForce) {
  Rng rng(5);
  std::vector<Hypervector> batch;
  for (int i = 0; i < 9; ++i) batch.push_back(random_bipolar(300, rng));
  BitsliceBundler bundler(300);
  for (const auto& hv : batch) bundler.add(PackedHypervector::from_bipolar(hv));
  const auto counts = bundler.negative_counts();
  for (std::size_t i = 0; i < 300; ++i) {
    std::uint32_t expected = 0;
    for (const auto& hv : batch) expected += hv[i] == -1 ? 1 : 0;
    ASSERT_EQ(counts[i], expected) << "component " << i;
  }
}

TEST(BitsliceBundler, MatchesBundleAccumulatorIncludingTies) {
  // Even input count forces ties; both paths must agree bit-for-bit because
  // they share the tie-break convention.
  Rng rng(7);
  std::vector<Hypervector> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(random_bipolar(1000, rng));

  DenseAccumulator reference(1000);
  BitsliceBundler bitslice(1000);
  for (const auto& hv : batch) {
    reference.add(hv);
    bitslice.add(PackedHypervector::from_bipolar(hv));
  }
  EXPECT_EQ(bitslice.threshold_packed(tie_sign_words(42, 1000)),
            PackedHypervector::from_bipolar(reference.threshold(42)));
}

TEST(BitsliceBundler, AddBoundMatchesBindThenAdd) {
  Rng rng(11);
  const auto a = random_bipolar(700, rng);
  const auto b = random_bipolar(700, rng);
  BitsliceBundler via_bound(700), via_add(700);
  via_bound.add_bound(PackedHypervector::from_bipolar(a), PackedHypervector::from_bipolar(b));
  via_add.add(PackedHypervector::from_bipolar(graphhd::testsupport::bind(a, b)));
  EXPECT_EQ(via_bound.threshold_packed({}), via_add.threshold_packed({}));
}

TEST(BitsliceBundler, ManyAddsStressCarryPropagation) {
  // 1000 adds exercise carry chains up to 10 planes.
  Rng rng(13);
  DenseAccumulator reference(256);
  BitsliceBundler bitslice(256);
  for (int i = 0; i < 1000; ++i) {
    const auto hv = random_bipolar(256, rng);
    reference.add(hv);
    bitslice.add(PackedHypervector::from_bipolar(hv));
  }
  EXPECT_EQ(bitslice.count(), 1000u);
  EXPECT_EQ(bitslice.threshold_packed(tie_sign_words(9, 256)),
            PackedHypervector::from_bipolar(reference.threshold(9)));
}

TEST(BitsliceBundler, DimensionMismatchThrows) {
  BitsliceBundler bundler(64);
  Rng rng(17);
  const auto wrong = PackedHypervector::random(32, rng);
  EXPECT_THROW(bundler.add(wrong), std::invalid_argument);
  const auto ok = PackedHypervector::random(64, rng);
  EXPECT_THROW(bundler.add_bound(ok, wrong), std::invalid_argument);
}

TEST(BitsliceBundler, ClearResets) {
  Rng rng(19);
  BitsliceBundler bundler(128);
  bundler.add(PackedHypervector::random(128, rng));
  bundler.clear();
  EXPECT_EQ(bundler.count(), 0u);
  for (const auto count : bundler.negative_counts()) EXPECT_EQ(count, 0u);
}

/// The load-bearing property: the encoder's bit-sliced packed path produces
/// exactly the dense reference encoder's encodings on every kind of graph,
/// with the bitslice flag (a recorded field) set either way.
class BitsliceEncoderEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitsliceEncoderEquivalence, FastPathBitIdenticalToReference) {
  Rng rng(GetParam());
  const auto graphs = {
      graphhd::graph::erdos_renyi(40, 0.1, rng),
      graphhd::graph::barabasi_albert(30, 2, rng),
      graphhd::graph::random_molecule(25, 3, rng),
      graphhd::graph::star_graph(12),
      graphhd::graph::cycle_graph(9),
  };
  for (const bool bitslice : {true, false}) {
    graphhd::core::GraphHdConfig config;
    config.dimension = 2048;
    config.use_bitslice_bundling = bitslice;
    graphhd::core::GraphHdEncoder fast(config);
    graphhd::testsupport::DenseEncoder reference(config);
    for (const auto& g : graphs) {
      EXPECT_EQ(fast.encode_packed(g), PackedHypervector::from_bipolar(reference.encode(g)))
          << "bitslice=" << bitslice << " |V|=" << g.num_vertices() << " |E|=" << g.num_edges();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsliceEncoderEquivalence, ::testing::Values(1, 2, 3));

/// threshold_packed is the encoder's output: it must be the exact packing of
/// the dense reference's majority over the same inputs — same majority, same
/// seeded tie-break — for both odd (tie-free) and even (tie-bearing) add
/// counts and at non-word-multiple dimensions.
TEST(BitsliceBundler, ThresholdPackedMatchesBipolarOddAndEven) {
  Rng rng(71);
  for (const std::size_t d : {70u, 300u, 1024u}) {
    for (const std::size_t adds : {1u, 3u, 4u, 8u}) {
      BitsliceBundler a(d);
      DenseAccumulator b(d);
      for (std::size_t i = 0; i < adds; ++i) {
        const auto hv = PackedHypervector::random(d, rng);
        a.add(hv);
        b.add(hv.to_bipolar());
      }
      EXPECT_EQ(a.threshold_packed(tie_sign_words(17, d)),
                PackedHypervector::from_bipolar(b.threshold(17)))
          << "d=" << d << " adds=" << adds;
    }
  }
}

TEST(BitsliceBundler, ThresholdPackedOnBoundPairs) {
  Rng rng(73);
  BitsliceBundler a(500);
  DenseAccumulator b(500);
  for (int i = 0; i < 6; ++i) {
    const auto x = PackedHypervector::random(500, rng);
    const auto y = PackedHypervector::random(500, rng);
    a.add_bound(x, y);
    b.add(graphhd::testsupport::bind(x.to_bipolar(), y.to_bipolar()));
  }
  EXPECT_EQ(a.threshold_packed(tie_sign_words(kMajorityTieSeed, 500)),
            PackedHypervector::from_bipolar(b.threshold(kMajorityTieSeed)));
}

TEST(BitsliceBundler, ThresholdPackedChecksTieWordsOnlyForEvenCounts) {
  Rng rng(79);
  BitsliceBundler bundler(130);  // three words
  const auto hv = PackedHypervector::random(130, rng);
  bundler.add(hv);
  EXPECT_EQ(bundler.threshold_packed({}), hv);  // odd: cannot tie, needs no words
  bundler.add(PackedHypervector::random(130, rng));
  EXPECT_THROW((void)bundler.threshold_packed({}), std::invalid_argument);
  EXPECT_THROW((void)bundler.threshold_packed(tie_sign_words(5, 64)), std::invalid_argument);
  EXPECT_NO_THROW((void)bundler.threshold_packed(tie_sign_words(5, 130)));
}

}  // namespace
