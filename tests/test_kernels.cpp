/// Dispatch-layer unit tests (registry, CPUID selection, GRAPHHD_KERNEL
/// override) plus fuzz-style randomized equivalence: every compiled-in,
/// CPU-supported SIMD variant must be bit-identical to the scalar reference
/// across odd dimensions, tail words and signed weights — the contract that
/// lets the packed pipeline swap kernels without changing a single
/// prediction.

#include "hdc/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/bitslice.hpp"
#include "hdc/kernels/random_inputs.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "hdc/random.hpp"
#include "support/dense_reference.hpp"
#include "support/proptest.hpp"

namespace {

namespace kernels = graphhd::hdc::kernels;
using graphhd::hdc::BitsliceBundler;
using graphhd::hdc::BundleAccumulator;
using graphhd::hdc::kMajorityTieSeed;
using graphhd::hdc::PackedHypervector;
using graphhd::hdc::Rng;
using graphhd::hdc::tie_sign_words;
using kernels::KernelOps;

/// Restores the startup kernel selection when a test that overrides the
/// active table (or GRAPHHD_KERNEL) goes out of scope.
class KernelGuard {
 public:
  KernelGuard() : saved_(&kernels::active()) {}
  ~KernelGuard() {
    ::unsetenv("GRAPHHD_KERNEL");
    kernels::set_active(*saved_);
  }

 private:
  const KernelOps* saved_;
};

/// The dimensions every equivalence test sweeps: word-aligned, off-by-one,
/// sub-word, odd/prime tails, and the paper's d=10000 (157 words minus 48
/// tail bits — exercises both the vector body and the scalar tail).
const std::vector<std::size_t> kDimensions = {1, 7, 63, 64, 65, 127, 128, 200, 1000, 4099, 10000};

using kernels::random_words;

std::vector<std::int32_t> random_counts(std::size_t n, Rng& rng) {
  std::vector<std::int32_t> counts(n);
  for (auto& c : counts) {
    // Small signed range so zeros (ties) actually occur.
    c = static_cast<std::int32_t>(rng.next_int(-3, 3));
  }
  return counts;
}

std::vector<const KernelOps*> supported_variants() {
  std::vector<const KernelOps*> out;
  for (const KernelOps* ops : kernels::compiled_variants()) {
    if (ops->supported()) out.push_back(ops);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(KernelDispatch, RegistryContainsScalarAndUniqueNamesOnce) {
  const auto& variants = kernels::compiled_variants();
  ASSERT_FALSE(variants.empty());
  std::set<std::string> names;
  for (const KernelOps* ops : variants) {
    EXPECT_TRUE(names.insert(ops->name).second)
        << "variant '" << ops->name << "' registered more than once";
  }
  EXPECT_TRUE(names.count("scalar")) << "scalar reference must always be compiled in";
}

TEST(KernelDispatch, RegistryIsSortedByDescendingPriority) {
  const auto& variants = kernels::compiled_variants();
  for (std::size_t i = 1; i < variants.size(); ++i) {
    EXPECT_GE(variants[i - 1]->priority, variants[i]->priority);
  }
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_STREQ(kernels::scalar().name, "scalar");
  EXPECT_TRUE(kernels::scalar().supported());
}

TEST(KernelDispatch, BestSupportedHasMaximalPriorityAmongSupported) {
  const KernelOps& best = kernels::best_supported();
  EXPECT_TRUE(best.supported());
  for (const KernelOps* ops : supported_variants()) {
    EXPECT_GE(best.priority, ops->priority);
  }
}

TEST(KernelDispatch, SelectFindsEveryCompiledSupportedVariant) {
  for (const KernelOps* ops : supported_variants()) {
    EXPECT_EQ(&kernels::select(ops->name), ops);
  }
  EXPECT_EQ(&kernels::select("auto"), &kernels::best_supported());
}

TEST(KernelDispatch, SelectRejectsUnknownNameWithClearError) {
  try {
    (void)kernels::select("not-a-kernel");
    FAIL() << "select() accepted an unknown variant name";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("not-a-kernel"), std::string::npos) << message;
    EXPECT_NE(message.find("scalar"), std::string::npos)
        << "error should list the valid names: " << message;
  }
}

TEST(KernelDispatch, EnvOverrideHonored) {
  KernelGuard guard;
  ::setenv("GRAPHHD_KERNEL", "scalar", 1);
  kernels::reset_from_env();
  EXPECT_STREQ(kernels::active().name, "scalar");
  // And the best supported SIMD variant is reachable the same way.
  const KernelOps& best = kernels::best_supported();
  ::setenv("GRAPHHD_KERNEL", best.name, 1);
  kernels::reset_from_env();
  EXPECT_STREQ(kernels::active().name, best.name);
}

TEST(KernelDispatch, EnvOverrideRejectsUnknownValueAndKeepsPreviousSelection) {
  KernelGuard guard;
  const char* before = kernels::active().name;
  ::setenv("GRAPHHD_KERNEL", "vliw9000", 1);
  EXPECT_THROW(kernels::reset_from_env(), std::runtime_error);
  EXPECT_STREQ(kernels::active().name, before)
      << "a bad override must not clobber the active table";
}

TEST(KernelDispatch, EmptyEnvFallsBackToAutoSelection) {
  KernelGuard guard;
  ::setenv("GRAPHHD_KERNEL", "", 1);
  kernels::reset_from_env();
  EXPECT_STREQ(kernels::active().name, kernels::best_supported().name);
}

// ---------------------------------------------------------------------------
// Randomized kernel-level equivalence: every supported variant vs scalar.
// Property-based (tests/support/proptest.hpp): random dimensions and
// contents, with dimension/row shrinking and a replayable failing seed —
// the former ad-hoc fixed-seed loops, upgraded.  The first cases of every
// property sweep the structured kDimensions list (word-aligned, off-by-one,
// odd/prime tails, the paper's d=10000) deterministically, so the
// interesting boundaries are guaranteed covered on every run; the remaining
// cases randomize.
// ---------------------------------------------------------------------------

namespace proptest = graphhd::proptest;

/// The first |kDimensions| cases sweep the structured boundary dimensions
/// deterministically (guaranteed every run); later cases draw either a
/// structured dimension or a uniform one.
std::size_t case_dimension(Rng& rng, std::size_t case_index) {
  if (case_index < kDimensions.size()) return kDimensions[case_index];
  if (rng.next_bool()) return kDimensions[rng.next_below(kDimensions.size())];
  return 1 + rng.next_below(12000);
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

/// Restores the packed-word invariant after truncating to `dimension`: the
/// kernels' documented domain requires tail bits beyond it to be zero.
void truncate_words(std::vector<std::uint64_t>& words, std::size_t dimension) {
  words.resize((dimension + 63) / 64);
  if (!words.empty() && dimension % 64 != 0) {
    words.back() &= ~std::uint64_t{0} >> (64 - dimension % 64);
  }
}

struct WordCase {
  std::size_t dimension = 0;
  std::vector<std::uint64_t> a, b, c;

  [[nodiscard]] std::size_t words() const { return (dimension + 63) / 64; }
  [[nodiscard]] WordCase truncated(std::size_t d) const {
    WordCase smaller{d, a, b, c};
    truncate_words(smaller.a, d);
    truncate_words(smaller.b, d);
    truncate_words(smaller.c, d);
    return smaller;
  }
};

TEST(KernelEquivalence, XorHammingFullAdderMatchScalar) {
  proptest::check<WordCase>(
      "xor/hamming/full_adder match scalar",
      [](Rng& rng, std::size_t case_index) {
        const std::size_t d = case_dimension(rng, case_index);
        return WordCase{d, random_words(d, rng), random_words(d, rng), random_words(d, rng)};
      },
      [](const WordCase& failing) {
        std::vector<WordCase> candidates;
        for (const std::size_t d : shrunk_dimensions(failing.dimension)) {
          candidates.push_back(failing.truncated(d));
        }
        return candidates;
      },
      [](const WordCase& c, std::ostream& diag) {
        diag << "d=" << c.dimension;
        const std::size_t n = c.words();
        std::vector<std::uint64_t> ref_xor(n), ref_carry(n), ref_plane = c.a;
        kernels::scalar().xor_words(ref_xor.data(), c.a.data(), c.b.data(), n);
        kernels::scalar().full_adder(ref_plane.data(), c.b.data(), c.c.data(), ref_carry.data(),
                                     n);
        const std::size_t ref_hamming =
            kernels::scalar().hamming_words(c.a.data(), c.b.data(), n);
        bool ok = true;
        for (const KernelOps* ops : supported_variants()) {
          std::vector<std::uint64_t> out(n), carry(n), plane = c.a;
          ops->xor_words(out.data(), c.a.data(), c.b.data(), n);
          if (out != ref_xor) diag << " [" << ops->name << " xor_words]", ok = false;
          if (ops->hamming_words(c.a.data(), c.b.data(), n) != ref_hamming) {
            diag << " [" << ops->name << " hamming_words]", ok = false;
          }
          ops->full_adder(plane.data(), c.b.data(), c.c.data(), carry.data(), n);
          if (plane != ref_plane) diag << " [" << ops->name << " full_adder plane]", ok = false;
          if (carry != ref_carry) diag << " [" << ops->name << " full_adder carry]", ok = false;
        }
        return ok;
      });
}

struct BatchCase {
  std::size_t dimension = 0;
  std::vector<std::uint64_t> query;
  std::vector<std::vector<std::uint64_t>> rows;
};

TEST(KernelEquivalence, HammingBatchMatchesScalar) {
  proptest::check<BatchCase>(
      "hamming_batch matches scalar across row counts",
      [](Rng& rng, std::size_t case_index) {
        const std::size_t d = case_dimension(rng, case_index);
        BatchCase c{d, random_words(d, rng), {}};
        const std::size_t num_rows = 1 + rng.next_below(17);  // odd counts included.
        for (std::size_t r = 0; r < num_rows; ++r) c.rows.push_back(random_words(d, rng));
        return c;
      },
      [](const BatchCase& failing) {
        std::vector<BatchCase> candidates;
        if (failing.rows.size() > 1) {
          BatchCase halved = failing;
          halved.rows.resize(failing.rows.size() / 2);
          candidates.push_back(std::move(halved));
          BatchCase one_less = failing;
          one_less.rows.pop_back();
          candidates.push_back(std::move(one_less));
        }
        for (const std::size_t d : shrunk_dimensions(failing.dimension)) {
          BatchCase smaller = failing;
          smaller.dimension = d;
          truncate_words(smaller.query, d);
          for (auto& row : smaller.rows) truncate_words(row, d);
          candidates.push_back(std::move(smaller));
        }
        return candidates;
      },
      [](const BatchCase& c, std::ostream& diag) {
        diag << "d=" << c.dimension << " rows=" << c.rows.size();
        const std::size_t n = (c.dimension + 63) / 64;
        std::vector<const std::uint64_t*> rows;
        for (const auto& row : c.rows) rows.push_back(row.data());
        std::vector<std::size_t> ref(rows.size());
        kernels::scalar().hamming_batch(c.query.data(), rows.data(), rows.size(), n, ref.data());
        bool ok = true;
        for (const KernelOps* ops : supported_variants()) {
          std::vector<std::size_t> got(rows.size());
          ops->hamming_batch(c.query.data(), rows.data(), rows.size(), n, got.data());
          if (got != ref) diag << " [" << ops->name << " hamming_batch]", ok = false;
        }
        return ok;
      });
}

struct CounterCase {
  std::size_t dimension = 0;
  std::vector<std::uint64_t> bits;
  std::vector<std::int32_t> base;
  std::int32_t weight = 1;
};

TEST(KernelEquivalence, CounterKernelsMatchScalarAcrossWeights) {
  proptest::check<CounterCase>(
      "accumulate_packed/threshold_counters match scalar",
      [](Rng& rng, std::size_t case_index) {
        const std::size_t d = case_dimension(rng, case_index);
        return CounterCase{d, random_words(d, rng), random_counts(d, rng),
                           static_cast<std::int32_t>(rng.next_int(-4, 7))};
      },
      [](const CounterCase& failing) {
        std::vector<CounterCase> candidates;
        for (const std::size_t d : shrunk_dimensions(failing.dimension)) {
          CounterCase smaller = failing;
          smaller.dimension = d;
          truncate_words(smaller.bits, d);
          smaller.base.resize(d);
          candidates.push_back(std::move(smaller));
        }
        if (failing.weight != 1) {
          CounterCase unit = failing;
          unit.weight = 1;
          candidates.push_back(std::move(unit));
        }
        return candidates;
      },
      [](const CounterCase& c, std::ostream& diag) {
        diag << "d=" << c.dimension << " weight=" << c.weight;
        const std::size_t n = (c.dimension + 63) / 64;
        auto ref_counts = c.base;
        kernels::scalar().accumulate_packed(ref_counts.data(), c.bits.data(), c.dimension,
                                            c.weight);
        std::vector<std::uint64_t> ref_neg(n, 0), ref_zero(n, 0), ref_neg_only(n, 0);
        kernels::scalar().threshold_counters(ref_counts.data(), c.dimension, ref_neg.data(),
                                             ref_zero.data());
        kernels::scalar().threshold_counters(ref_counts.data(), c.dimension, ref_neg_only.data(),
                                             nullptr);
        bool ok = ref_neg_only == ref_neg;
        if (!ok) diag << " [scalar neg-only mask disagrees]";
        for (const KernelOps* ops : supported_variants()) {
          auto counts = c.base;
          ops->accumulate_packed(counts.data(), c.bits.data(), c.dimension, c.weight);
          if (counts != ref_counts) diag << " [" << ops->name << " accumulate_packed]", ok = false;
          std::vector<std::uint64_t> neg(n, 0), zero(n, 0);
          ops->threshold_counters(counts.data(), c.dimension, neg.data(), zero.data());
          if (neg != ref_neg) diag << " [" << ops->name << " threshold neg]", ok = false;
          if (zero != ref_zero) diag << " [" << ops->name << " threshold zero]", ok = false;
        }
        return ok;
      });
}

// ---------------------------------------------------------------------------
// End-to-end equivalence through the consolidated accumulator/bundler paths
// (packed BundleAccumulator adds and threshold_packed): random weighted adds,
// odd dimensions, forced ties — every variant's pipeline output must equal
// the scalar pipeline's bit for bit.
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, WeightedPackedBundlePipelineMatchesScalarVariant) {
  Rng rng(0x5eed5);
  for (const std::size_t d : {63u, 64u, 200u, 4099u}) {
    // One shared random op sequence per dimension, replayed per variant.
    std::vector<PackedHypervector> inputs;
    std::vector<std::int32_t> weights;
    for (std::size_t step = 0; step < 24; ++step) {
      inputs.push_back(PackedHypervector::random(d, rng));
      // Even weights keep the parity even so the tie path stays exercised.
      weights.push_back(static_cast<std::int32_t>(rng.next_int(-2, 2)));
    }
    auto run = [&] {
      BundleAccumulator acc(d);
      for (std::size_t i = 0; i < inputs.size(); ++i) acc.add(inputs[i], weights[i]);
      return acc.threshold_packed();
    };
    KernelGuard guard;
    kernels::set_active(kernels::scalar());
    const PackedHypervector reference = run();
    for (const KernelOps* ops : supported_variants()) {
      kernels::set_active(*ops);
      EXPECT_EQ(run(), reference) << ops->name << " weighted bundle pipeline d=" << d;
    }
  }
}

TEST(KernelEquivalence, BitsliceThresholdPackedMatchesScalarVariantAndDense) {
  Rng rng(0x5eed6);
  for (const std::size_t d : {65u, 127u, 1000u}) {
    for (const std::size_t adds : {2u, 5u, 8u}) {  // even counts exercise ties
      std::vector<PackedHypervector> pairs;
      for (std::size_t i = 0; i < 2 * adds; ++i) pairs.push_back(PackedHypervector::random(d, rng));
      const std::vector<std::uint64_t> tie = tie_sign_words(kMajorityTieSeed, d);
      auto run = [&] {
        BitsliceBundler bundler(d);
        for (std::size_t i = 0; i < adds; ++i) bundler.add_bound(pairs[2 * i], pairs[2 * i + 1]);
        return bundler.threshold_packed(tie);
      };
      KernelGuard guard;
      kernels::set_active(kernels::scalar());
      const PackedHypervector reference = run();
      // The scalar bitslice result still matches the dense reference.
      graphhd::testsupport::DenseAccumulator dense(d);
      for (std::size_t i = 0; i < adds; ++i) {
        dense.add(graphhd::testsupport::bind(pairs[2 * i].to_bipolar(),
                                             pairs[2 * i + 1].to_bipolar()));
      }
      EXPECT_EQ(reference, PackedHypervector::from_bipolar(dense.threshold(kMajorityTieSeed)))
          << "bitslice vs dense d=" << d << " adds=" << adds;
      for (const KernelOps* ops : supported_variants()) {
        kernels::set_active(*ops);
        EXPECT_EQ(run(), reference) << ops->name << " threshold_packed d=" << d;
      }
    }
  }
}

TEST(KernelEquivalence, DenseHypervectorOpsMatchScalarVariant) {
  // The hypervector ops the library ships — bind, Hamming distance and the
  // cosine — give the same words and doubles under every variant.
  Rng rng(0x5eed7);
  for (const std::size_t d : {7u, 1000u, 10000u}) {
    const auto a = PackedHypervector::random(d, rng);
    const auto b = PackedHypervector::random(d, rng);
    KernelGuard guard;
    kernels::set_active(kernels::scalar());
    const PackedHypervector ref_bound = a.bind(b);
    const std::size_t ref_hamming = a.hamming_distance(b);
    const double ref_cosine = graphhd::hdc::similarity(a, b);
    for (const KernelOps* ops : supported_variants()) {
      kernels::set_active(*ops);
      EXPECT_EQ(a.bind(b), ref_bound) << ops->name;
      EXPECT_EQ(a.hamming_distance(b), ref_hamming) << ops->name;
      EXPECT_EQ(graphhd::hdc::similarity(a, b), ref_cosine) << ops->name;
    }
  }
}

}  // namespace
