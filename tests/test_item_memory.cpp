#include "support/dense_reference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace {

using graphhd::hdc::Hypervector;
using graphhd::testsupport::ItemMemory;

TEST(ItemMemory, RejectsZeroDimension) {
  EXPECT_THROW(ItemMemory(0, 1), std::invalid_argument);
}

TEST(ItemMemory, SameSeedSameVectors) {
  ItemMemory a(256, 42), b(256, 42);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a.get(i), b.get(i)) << "index " << i;
  }
}

TEST(ItemMemory, DifferentSeedsDiffer) {
  ItemMemory a(256, 1), b(256, 2);
  EXPECT_NE(a.get(0), b.get(0));
}

TEST(ItemMemory, AccessOrderIrrelevant) {
  // Counter-based generation: get(5) must not depend on whether 0..4 were
  // materialized first.
  ItemMemory forward(128, 7), backward(128, 7);
  const auto direct = backward.get(5);
  for (std::size_t i = 0; i <= 5; ++i) (void)forward.get(i);
  EXPECT_EQ(forward.get(5), direct);
}

TEST(ItemMemory, MakeMatchesGet) {
  ItemMemory memory(128, 11);
  EXPECT_EQ(memory.make(3), memory.get(3));
  EXPECT_EQ(memory.make(0), memory.get(0));
}

TEST(ItemMemory, GrowsLazily) {
  ItemMemory memory(64, 13);
  EXPECT_EQ(memory.size(), 0u);
  (void)memory.get(9);
  EXPECT_EQ(memory.size(), 10u);
}

TEST(ItemMemory, VectorsAreQuasiOrthogonal) {
  ItemMemory memory(10000, 19);
  // All pairs among the first 12 vectors must be near-orthogonal — the
  // property GraphHD relies on to keep distinct ranks distinguishable.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_LT(std::abs(graphhd::testsupport::similarity(memory.get(i), memory.get(j))), 0.05)
          << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(ItemMemory, DimensionIsRespected) {
  ItemMemory memory(321, 23);
  EXPECT_EQ(memory.get(0).dimension(), 321u);
  EXPECT_EQ(memory.dimension(), 321u);
}

}  // namespace
