#include "hdc/packed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/dense_reference.hpp"
#include "support/proptest.hpp"

namespace {

using graphhd::hdc::BundleAccumulator;
using graphhd::hdc::Hypervector;
using graphhd::hdc::PackedHypervector;
using graphhd::hdc::Rng;
using graphhd::testsupport::DenseAccumulator;
using graphhd::testsupport::random_bipolar;
namespace dense = graphhd::testsupport;
namespace proptest = graphhd::proptest;

// ---------------------------------------------------------------------------
// Packed <-> bipolar equivalence, property-based (tests/support/proptest.hpp
// — the former fixed-seed tests and the TEST_P dimension sweep, upgraded to
// replayable seeds and dimension shrinking).  The leading cases sweep the
// word-boundary dimensions deterministically on every run; later cases
// randomize dimension and contents.
// ---------------------------------------------------------------------------

const std::vector<std::size_t> kBoundaryDims = {1, 32, 63, 64, 65, 100, 127, 129, 1000, 10000};

std::size_t case_dimension(Rng& rng, std::size_t case_index) {
  if (case_index < kBoundaryDims.size()) return kBoundaryDims[case_index];
  if (rng.next_bool()) return kBoundaryDims[rng.next_below(kBoundaryDims.size())];
  return 1 + rng.next_below(4096);
}

/// Shrink helper: the next smaller dimensions worth trying (halve, step to
/// the word boundary below, drop to one word).
std::vector<std::size_t> shrunk_dimensions(std::size_t d) {
  std::vector<std::size_t> out;
  if (d > 1) out.push_back(d / 2);
  if (d > 64 && d % 64 != 0) out.push_back(d - d % 64);
  if (d > 64) out.push_back(64);
  return out;
}

/// Vectors regenerate from (dimension, data_seed), so a case is fully
/// described — and replayable / shrinkable — by a handful of scalars.
struct OpsCase {
  std::size_t dimension = 1;
  std::ptrdiff_t shift = 0;
  std::uint64_t data_seed = 0;
};

std::ostream& operator<<(std::ostream& out, const OpsCase& c) {
  return out << "d=" << c.dimension << " shift=" << c.shift << " data_seed=" << c.data_seed;
}

TEST(PackedHypervector, PropertyOpsMatchBipolar) {
  proptest::check<OpsCase>(
      "packed roundtrip/bind/hamming/similarity/permute match bipolar",
      [](Rng& rng, std::size_t case_index) {
        OpsCase c;
        c.dimension = case_dimension(rng, case_index);
        c.shift = static_cast<std::ptrdiff_t>(rng.next_int(-130, 130));
        c.data_seed = rng();
        return c;
      },
      [](const OpsCase& failing) {
        std::vector<OpsCase> candidates;
        for (const std::size_t d : shrunk_dimensions(failing.dimension)) {
          candidates.push_back({d, failing.shift, failing.data_seed});
        }
        if (failing.shift != 0) candidates.push_back({failing.dimension, 0, failing.data_seed});
        return candidates;
      },
      [](const OpsCase& c, std::ostream& diag) {
        diag << c;
        Rng rng(c.data_seed);
        const auto a = random_bipolar(c.dimension, rng);
        const auto b = random_bipolar(c.dimension, rng);
        const auto pa = PackedHypervector::from_bipolar(a);
        const auto pb = PackedHypervector::from_bipolar(b);
        bool ok = true;
        if (pa.to_bipolar() != a) diag << " [roundtrip]", ok = false;
        if (pa.bind(pb).to_bipolar() != dense::bind(a, b)) diag << " [bind]", ok = false;
        const auto hamming = static_cast<std::int64_t>(pa.hamming_distance(pb));
        if (static_cast<std::int64_t>(c.dimension) - 2 * hamming != dense::dot(a, b)) {
          diag << " [hamming]", ok = false;
        }
        if (std::abs(pa.similarity(pb) - dense::similarity(a, b)) > 1e-12) {
          diag << " [similarity]", ok = false;
        }
        // The drawn shift plus the rotation's boundary inputs: a whole
        // turn, one short of and one past it, and a whole turn backwards.
        const auto d = static_cast<std::ptrdiff_t>(c.dimension);
        for (const std::ptrdiff_t shift : {c.shift, d - 1, d, d + 1, -d}) {
          if (pa.permute(shift).to_bipolar() != graphhd::testsupport::permute(a, shift)) {
            diag << " [permute " << shift << "]", ok = false;
          }
        }
        return ok;
      },
      proptest::Config{.cases = 48, .min_cases = kBoundaryDims.size()});
}

/// Bundling case: regenerates `weights.size()` random vectors from the data
/// seed and replays the same signed add history through both accumulators.
struct BundleCase {
  std::size_t dimension = 1;
  std::vector<std::int32_t> weights;
  std::uint64_t data_seed = 0;
  std::uint64_t tie_seed = 0;
};

std::ostream& operator<<(std::ostream& out, const BundleCase& c) {
  out << "d=" << c.dimension << " weights=[";
  for (std::size_t i = 0; i < c.weights.size(); ++i) {
    out << (i == 0 ? "" : ", ") << c.weights[i];
  }
  return out << "] data_seed=" << c.data_seed << " tie_seed=" << c.tie_seed;
}

TEST(PackedBundle, PropertyMatchesBipolarAccumulator) {
  proptest::check<BundleCase>(
      "packed adds track bipolar adds through signed histories",
      [](Rng& rng, std::size_t case_index) {
        BundleCase c;
        c.dimension = case_dimension(rng, case_index);
        // Even counts force ties (resolved through the shared tie-break
        // seed); negative weights exercise the retraining path.
        const std::size_t adds = 1 + rng.next_below(8);
        for (std::size_t i = 0; i < adds; ++i) {
          c.weights.push_back(static_cast<std::int32_t>(rng.next_int(-3, 3)));
        }
        c.data_seed = rng();
        c.tie_seed = rng.next_below(1 << 10);
        return c;
      },
      [](const BundleCase& failing) {
        std::vector<BundleCase> candidates;
        if (failing.weights.size() > 1) {
          BundleCase fewer = failing;
          fewer.weights.pop_back();
          candidates.push_back(std::move(fewer));
        }
        for (const std::size_t d : shrunk_dimensions(failing.dimension)) {
          BundleCase smaller = failing;
          smaller.dimension = d;
          candidates.push_back(std::move(smaller));
        }
        return candidates;
      },
      [](const BundleCase& c, std::ostream& diag) {
        diag << c;
        Rng rng(c.data_seed);
        DenseAccumulator bipolar_acc(c.dimension);
        BundleAccumulator packed_acc(c.dimension);
        bool ok = true;
        for (std::size_t i = 0; i < c.weights.size(); ++i) {
          const auto hv = random_bipolar(c.dimension, rng);
          bipolar_acc.add(hv, c.weights[i]);
          packed_acc.add(PackedHypervector::from_bipolar(hv), c.weights[i]);
          if (packed_acc.tie_free() != bipolar_acc.tie_free()) {
            diag << " [tie_free after add " << i << "]", ok = false;
          }
          if (packed_acc.threshold_packed(c.tie_seed).to_bipolar() !=
              bipolar_acc.threshold(c.tie_seed)) {
            diag << " [threshold after add " << i << "]", ok = false;
          }
        }
        const auto dense_counts = bipolar_acc.counts();
        const auto packed_counts = packed_acc.counts();
        if (dense_counts.size() != packed_counts.size()) {
          diag << " [counts size]";
          return false;
        }
        for (std::size_t i = 0; i < dense_counts.size(); ++i) {
          if (dense_counts[i] != packed_counts[i]) {
            diag << " [counts @" << i << "]";
            ok = false;
            break;
          }
        }
        return ok;
      },
      proptest::Config{.cases = 32, .min_cases = kBoundaryDims.size()});
}

TEST(PackedHypervector, BitConventionMapsMinusOneToSetBit) {
  const Hypervector bipolar(std::vector<std::int8_t>{1, -1, 1, -1});
  const auto packed = PackedHypervector::from_bipolar(bipolar);
  EXPECT_FALSE(packed.bit(0));
  EXPECT_TRUE(packed.bit(1));
  EXPECT_FALSE(packed.bit(2));
  EXPECT_TRUE(packed.bit(3));
}

// words() is a view into the vector, so it is callable on lvalues only:
// `for (w : encoder.encode_packed(g).words())` would read freed memory.
template <typename T>
concept HasWords = requires { std::declval<T>().words(); };
static_assert(HasWords<PackedHypervector&> && HasWords<const PackedHypervector&>);
static_assert(!HasWords<PackedHypervector> && !HasWords<const PackedHypervector>);

TEST(PackedHypervector, RandomIsDeterministic) {
  Rng a(17), b(17);
  EXPECT_EQ(PackedHypervector::random(500, a), PackedHypervector::random(500, b));
}

TEST(PackedHypervector, RandomMasksTailBits) {
  Rng rng(19);
  const auto hv = PackedHypervector::random(70, rng);
  // Bits beyond dimension 70 in the last word must be zero, otherwise
  // hamming distances would be corrupted.
  const auto words = hv.words();
  EXPECT_EQ(words.size(), 2u);
  EXPECT_EQ(words[1] >> 6, 0u);
}

TEST(PackedHypervector, SetBitReadsBack) {
  PackedHypervector hv(128);
  hv.set_bit(77, true);
  EXPECT_TRUE(hv.bit(77));
  hv.set_bit(77, false);
  EXPECT_FALSE(hv.bit(77));
}

TEST(PackedHypervector, BindDimensionMismatchThrows) {
  PackedHypervector a(64), b(128);
  EXPECT_THROW((void)a.bind(b), std::invalid_argument);
  EXPECT_THROW((void)a.hamming_distance(b), std::invalid_argument);
}

TEST(PackedBundle, OddMajorityExact) {
  // The default-seed threshold_packed() (odd counts cannot tie) — the one
  // path the seeded property above does not touch.
  Rng rng(31);
  std::vector<Hypervector> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(random_bipolar(512, rng));
  DenseAccumulator bipolar_acc(512);
  BundleAccumulator packed_acc(512);
  for (const auto& hv : batch) {
    bipolar_acc.add(hv);
    packed_acc.add(PackedHypervector::from_bipolar(hv));
  }
  EXPECT_EQ(packed_acc.threshold_packed().to_bipolar(),
            bipolar_acc.threshold(graphhd::hdc::kMajorityTieSeed));
}

TEST(PackedBundle, RestoredZeroUnderOddParityMatchesBipolarThreshold) {
  // A raw state with odd parity but a zero counter (only from_raw makes one):
  // odd parity skips the tie stream, so the zero maps to -1 (a set bit).
  const auto acc = BundleAccumulator::from_raw({3, 0, -1, 0, 5}, 1, /*weight_parity_odd=*/true);
  EXPECT_EQ(acc.threshold_packed().to_bipolar(),
            Hypervector(std::vector<std::int8_t>{1, -1, -1, -1, 1}));
}

TEST(PackedBundle, CountsAdds) {
  BundleAccumulator acc(64);
  Rng rng(37);
  acc.add(PackedHypervector::random(64, rng));
  acc.add(PackedHypervector::random(64, rng));
  EXPECT_EQ(acc.count(), 2u);
}

TEST(PackedBundle, DimensionMismatchThrows) {
  BundleAccumulator acc(64);
  Rng rng(41);
  EXPECT_THROW(acc.add(PackedHypervector::random(32, rng)), std::invalid_argument);
}

TEST(PackedHypervector, BitReadOutOfRangeThrows) {
  // Regression: bit() used to index words_ unchecked — one past the last
  // word is UB, and reads inside the tail slack would return padding.
  PackedHypervector hv(70);
  EXPECT_NO_THROW((void)hv.bit(69));
  EXPECT_THROW((void)hv.bit(70), std::out_of_range);
  EXPECT_THROW((void)hv.bit(127), std::out_of_range);  // inside the tail word.
  EXPECT_THROW((void)hv.bit(1u << 20), std::out_of_range);
}

TEST(PackedHypervector, SetBitOutOfRangeThrows) {
  PackedHypervector hv(70);
  EXPECT_NO_THROW(hv.set_bit(69, true));
  // A write into the tail slack would corrupt every later Hamming distance.
  EXPECT_THROW(hv.set_bit(70, true), std::out_of_range);
  EXPECT_THROW(hv.set_bit(128, true), std::out_of_range);
}

TEST(PackedHypervector, EmptyVectorRejectsAnyBitAccess) {
  PackedHypervector hv;
  EXPECT_THROW((void)hv.bit(0), std::out_of_range);
  EXPECT_THROW(hv.set_bit(0, false), std::out_of_range);
}

TEST(PackedHypervector, FromWordsRoundTripsAndMasksTail) {
  std::vector<std::uint64_t> words = {~std::uint64_t{0}, ~std::uint64_t{0}};
  const auto hv = PackedHypervector::from_words(words, 70);
  EXPECT_EQ(hv.dimension(), 70u);
  EXPECT_EQ(hv.words()[1] >> 6, 0u) << "tail bits must be cleared";
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(hv.bit(i)) << i;
  EXPECT_THROW((void)PackedHypervector::from_words(words, 200), std::invalid_argument);
  EXPECT_THROW((void)PackedHypervector::from_words(words, 64), std::invalid_argument);
}

TEST(PackedBundle, SubtractCancelsAdd) {
  Rng rng(53);
  const auto hv = PackedHypervector::random(128, rng);
  BundleAccumulator acc(128);
  acc.add(hv);
  acc.add(hv, -1);
  for (const std::int32_t c : acc.counts()) EXPECT_EQ(c, 0);
  EXPECT_FALSE(acc.tie_free());
}

TEST(PackedBundle, FromRawRestoresState) {
  Rng rng(59);
  BundleAccumulator acc(96);
  for (int i = 0; i < 3; ++i) acc.add(PackedHypervector::random(96, rng));
  const auto restored = BundleAccumulator::from_raw(
      std::vector<std::int32_t>(acc.counts().begin(), acc.counts().end()), acc.count(),
      acc.tie_free());
  EXPECT_EQ(restored.count(), acc.count());
  EXPECT_EQ(restored.tie_free(), acc.tie_free());
  EXPECT_EQ(restored.threshold_packed(), acc.threshold_packed());
}

TEST(PackedBundle, ClearResets) {
  Rng rng(61);
  BundleAccumulator acc(64);
  acc.add(PackedHypervector::random(64, rng));
  acc.clear();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_FALSE(acc.tie_free());
  for (const std::int32_t c : acc.counts()) EXPECT_EQ(c, 0);
}

}  // namespace
