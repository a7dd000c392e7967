/// hdc::AssociativeMemory, the one class memory, against the dense
/// reference's DenseMemory (tests/support/dense_reference.hpp).  The
/// ClassMemory suites bundle the library memory with packed samples and the
/// reference with the same samples in bipolar form, and require identical
/// counters, class vectors and similarity doubles (not just the same argmax)
/// under every metric and under counter-cosine scoring; they also cover the
/// packed class rows a trained model deploys in its InferenceSnapshot.

#include "hdc/assoc_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "graph/generators.hpp"
#include "support/dense_reference.hpp"

namespace {

using namespace graphhd::hdc;
using graphhd::testsupport::DenseMemory;

/// A library memory and its reference twin, both fed three noisy copies of
/// one random prototype per class.
std::pair<AssociativeMemory, DenseMemory> trained_memory(
    std::size_t dimension, std::size_t classes, std::uint64_t seed,
    std::vector<PackedHypervector>* prototypes_out = nullptr) {
  Rng rng(seed);
  AssociativeMemory memory(dimension, classes);
  DenseMemory reference(dimension, classes, Similarity::kCosine, /*quantized=*/true);
  std::vector<PackedHypervector> prototypes;
  for (std::size_t c = 0; c < classes; ++c) {
    prototypes.push_back(PackedHypervector::random(dimension, rng));
    for (int s = 0; s < 3; ++s) {
      const auto sample = prototypes.back().with_noise(dimension / 10, rng);
      memory.add(c, sample);
      reference.add(c, sample.to_bipolar());
    }
  }
  if (prototypes_out != nullptr) *prototypes_out = std::move(prototypes);
  return {std::move(memory), std::move(reference)};
}

TEST(ClassMemory, AgreesWithBipolarMemoryOnArgmax) {
  std::vector<PackedHypervector> prototypes;
  const auto [memory, reference] = trained_memory(4096, 4, 3, &prototypes);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto query = prototypes[trial % 4].with_noise(800, rng);
    EXPECT_EQ(memory.query(query).best_class, reference.query(query.to_bipolar()).best_class)
        << "trial " << trial;
  }
}

TEST(ClassMemory, SimilaritiesEqualBipolarCosine) {
  const auto [memory, reference] = trained_memory(2048, 3, 5);
  Rng rng(11);
  const auto query = PackedHypervector::random(2048, rng);
  // Exact double equality: the packed scorer reproduces the dense arithmetic.
  EXPECT_EQ(memory.query(query).similarities, reference.query(query.to_bipolar()).similarities);
}

TEST(ClassMemory, QueryValidatesDimension) {
  const auto memory = trained_memory(256, 2, 13).first;
  Rng rng(17);
  EXPECT_THROW((void)memory.query(PackedHypervector::random(128, rng)),
               std::invalid_argument);
}

TEST(ClassMemory, ClassVectorsMatchSource) {
  const auto [memory, reference] = trained_memory(512, 2, 19);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(memory.packed_class_vector(c).to_bipolar(), reference.class_vector(c));
  }
  EXPECT_THROW((void)memory.packed_class_vector(2), std::out_of_range);
}

/// A model with one star graph per class, dimension `dimension`.
graphhd::core::GraphHdModel star_model(std::size_t dimension, std::size_t classes,
                                       std::size_t vectors_per_class = 1) {
  graphhd::core::GraphHdConfig config;
  config.dimension = dimension;
  config.vectors_per_class = vectors_per_class;
  graphhd::core::GraphHdModel model(config, classes);
  for (std::size_t c = 0; c < classes; ++c) model.partial_fit(graphhd::graph::star_graph(5 + c), c);
  return model;
}

TEST(ClassMemory, SnapshotIsFrozen) {
  // The deployed packed rows live in the snapshot: training on does not
  // reach a snapshot already handed out.
  auto model = star_model(1024, 2);
  const auto snapshot = model.snapshot();
  const std::vector<std::uint64_t> before(snapshot->packed_words(0).begin(),
                                          snapshot->packed_words(0).end());
  for (std::size_t n = 6; n < 14; ++n) model.partial_fit(graphhd::graph::cycle_graph(n), 0);
  EXPECT_TRUE(std::ranges::equal(snapshot->packed_words(0), before));
  EXPECT_FALSE(std::ranges::equal(model.snapshot()->packed_words(0), before));
}

TEST(ClassMemory, FootprintIsBitsNotBytes) {
  // 6 classes x ceil(10000/8) = 7500 bytes — the deployable-model size the
  // paper's IoT argument relies on.
  EXPECT_EQ(star_model(10000, 6).snapshot()->footprint_bytes(), 6u * 1250u);
}

TEST(ClassMemory, CopiesQueryIdentically) {
  Rng rng(223);
  AssociativeMemory memory(129, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    memory.add(i % 2, PackedHypervector::random(129, rng));
  }
  const auto query = PackedHypervector::random(129, rng);
  const auto reference = memory.query(query);
  const AssociativeMemory copied = memory;
  EXPECT_EQ(copied.query(query).similarities, reference.similarities);
  AssociativeMemory assigned(129, 2);
  assigned = memory;
  EXPECT_EQ(assigned.query(query).similarities, reference.similarities);
}

// ---------------------------------------------------------------------------
// Training: the library memory bundled with packed samples must stay
// bit-identical to the reference bundled with the same samples in bipolar
// form.
// ---------------------------------------------------------------------------

/// Bundles the same random stream into the reference and the library memory.
std::pair<DenseMemory, AssociativeMemory> twin_memories(std::size_t dimension, std::size_t classes,
                                                        std::uint64_t seed, Similarity metric,
                                                        bool quantized = true) {
  Rng rng(seed);
  DenseMemory dense(dimension, classes, metric, quantized);
  AssociativeMemory packed(dimension, classes, metric, quantized);
  for (std::size_t c = 0; c < classes; ++c) {
    for (int s = 0; s < 4; ++s) {  // even count: exercises the tie stream.
      const auto hv = PackedHypervector::random(dimension, rng);
      dense.add(c, hv.to_bipolar());
      packed.add(c, hv);
    }
  }
  return {std::move(dense), std::move(packed)};
}

class ClassMemoryMetric : public ::testing::TestWithParam<Similarity> {};

TEST_P(ClassMemoryMetric, SimilaritiesBitIdenticalToDense) {
  auto [dense, packed] = twin_memories(1030, 3, 83, GetParam());
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = PackedHypervector::random(1030, rng);
    const auto d = dense.query(query.to_bipolar());
    const auto p = packed.query(query);
    EXPECT_EQ(p.best_class, d.best_class) << "trial " << trial;
    EXPECT_EQ(p.best_similarity, d.best_similarity) << "trial " << trial;
    ASSERT_EQ(p.similarities.size(), d.similarities.size());
    for (std::size_t c = 0; c < d.similarities.size(); ++c) {
      // Exact double equality — the packed scorer reproduces the dense
      // arithmetic, it does not approximate it.
      EXPECT_EQ(p.similarities[c], d.similarities[c]) << "class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, ClassMemoryMetric,
                         ::testing::Values(Similarity::kCosine, Similarity::kInverseHamming,
                                           Similarity::kDot));

TEST(ClassMemory, CounterScoringBitIdenticalToDense) {
  // The non-quantized memory scores raw counters by cosine (the model the
  // CLI's --retrain selects under the dense tag).  Packed samples and packed
  // queries must give the bipolar twin's counters and doubles, through
  // bundling and through retraining updates.
  auto [dense, packed] = twin_memories(1030, 3, 113, Similarity::kCosine, /*quantized=*/false);
  Rng rng(127);
  const auto expect_same = [&](const char* phase) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(std::ranges::equal(packed.accumulator(c).counts(), dense.accumulator(c).counts()))
          << phase << " class " << c;
    }
    for (int trial = 0; trial < 10; ++trial) {
      const auto query = PackedHypervector::random(1030, rng);
      const auto d = dense.query(query.to_bipolar());
      const auto p = packed.query(query);
      EXPECT_EQ(p.best_class, d.best_class) << phase << " trial " << trial;
      EXPECT_EQ(p.best_similarity, d.best_similarity) << phase << " trial " << trial;
      EXPECT_EQ(p.similarities, d.similarities) << phase << " trial " << trial;
    }
  };
  expect_same("bundled");
  for (std::size_t step = 0; step < 6; ++step) {
    const auto sample = PackedHypervector::random(1030, rng);
    dense.retrain_update(step % 3, (step + 1) % 3, sample.to_bipolar());
    packed.retrain_update(step % 3, (step + 1) % 3, sample);
  }
  expect_same("retrained");
}

TEST(ClassMemory, ClassVectorsAreExactPackingsOfDense) {
  auto [dense, packed] = twin_memories(700, 2, 97, Similarity::kCosine);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(std::ranges::equal(packed.accumulator(c).counts(), dense.accumulator(c).counts()));
    EXPECT_EQ(packed.packed_class_vector(c).to_bipolar(), dense.class_vector(c));
  }
}

TEST(ClassMemory, RetrainUpdateTracksDense) {
  auto [dense, packed] = twin_memories(512, 2, 101, Similarity::kCosine);
  Rng rng(103);
  const auto sample = PackedHypervector::random(512, rng);
  dense.retrain_update(0, 1, sample.to_bipolar());
  packed.retrain_update(0, 1, sample);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(packed.packed_class_vector(c).to_bipolar(), dense.class_vector(c));
  }
  // Self-update is a no-op on both sides.
  dense.retrain_update(1, 1, sample.to_bipolar());
  packed.retrain_update(1, 1, sample);
  EXPECT_EQ(packed.packed_class_vector(1).to_bipolar(), dense.class_vector(1));
}

TEST(ClassMemory, RestoreRebuildsClassVectors) {
  auto [dense, packed] = twin_memories(256, 2, 107, Similarity::kCosine);
  AssociativeMemory restored(256, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& acc = packed.accumulator(c);
    restored.restore(c,
                     BundleAccumulator::from_raw(
                         std::vector<std::int32_t>(acc.counts().begin(), acc.counts().end()),
                         acc.count(), acc.tie_free()),
                     packed.class_count(c));
    EXPECT_EQ(restored.class_count(c), packed.class_count(c));
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(restored.packed_class_vector(c), packed.packed_class_vector(c));
  }
}

TEST(ClassMemory, ValidatesArguments) {
  AssociativeMemory memory(64, 2);
  Rng rng(109);
  const auto hv = PackedHypervector::random(64, rng);
  const auto wrong = PackedHypervector::random(32, rng);
  EXPECT_THROW(memory.add(2, hv), std::out_of_range);
  EXPECT_THROW(memory.add(0, wrong), std::invalid_argument);
  EXPECT_THROW((void)memory.query(wrong), std::invalid_argument);
  EXPECT_THROW((void)memory.packed_class_vector(5), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(0, 7, hv), std::out_of_range);
  EXPECT_THROW(memory.retrain_update(0, 1, wrong), std::invalid_argument);
  EXPECT_THROW(memory.restore(0, BundleAccumulator(32), 1), std::invalid_argument);
}

TEST(ClassMemory, FootprintMatchesSnapshot) {
  // Every prototype slot deploys one packed row: 2 classes x 2 prototypes.
  EXPECT_EQ(star_model(10000, 2, /*vectors_per_class=*/2).snapshot()->footprint_bytes(),
            4u * 1250u);
}

TEST(ClassMemory, CopiesAndMovesQueryIdentically) {
  // Copies and moves carry the cached class vectors (or the dirty flag that
  // rebuilds them), so queries on any copy agree.
  Rng rng(211);
  AssociativeMemory memory(257, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    memory.add(i % 3, PackedHypervector::random(257, rng));
  }
  const auto query = PackedHypervector::random(257, rng);
  memory.finalize();
  const auto reference = memory.query(query);

  AssociativeMemory copied = memory;  // clean (finalized) copy
  EXPECT_EQ(copied.query(query).similarities, reference.similarities);
  AssociativeMemory assigned(257, 3);
  assigned = memory;
  EXPECT_EQ(assigned.query(query).similarities, reference.similarities);
  AssociativeMemory moved = std::move(copied);
  EXPECT_EQ(moved.query(query).similarities, reference.similarities);

  // Dirty copy: accumulate, copy before finalize, then query both.
  memory.add(1, PackedHypervector::random(257, rng));
  AssociativeMemory dirty_copy = memory;
  EXPECT_EQ(dirty_copy.query(query).similarities, memory.query(query).similarities);
}

}  // namespace
