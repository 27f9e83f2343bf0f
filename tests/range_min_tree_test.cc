// RangeMinTree is the data structure under the solver's candidate index; its
// contract is not just "a minimum" but the *first* minimum — the same leaf a
// left-to-right "first strict improvement wins" scan picks. These tests pin
// that tie-break against a naive scan under randomized builds, point
// updates (including ∞ kills and revivals), and sub-range queries.

#include "util/range_min_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace mintri {
namespace {

// The reference semantics: leftmost index of the minimum value.
int NaiveMinIndex(const std::vector<CostValue>& values, int begin, int end) {
  int best = -1;
  for (int i = begin; i < end; ++i) {
    if (best < 0 || values[i] < values[best]) best = i;
  }
  return best;
}

TEST(RangeMinTreeTest, EmptyTreeReportsNoMin) {
  RangeMinTree tree;
  EXPECT_EQ(tree.size(), 0);
  EXPECT_EQ(tree.MinIndex(), -1);
}

TEST(RangeMinTreeTest, TiesResolveToLowestIndex) {
  RangeMinTree tree(std::vector<CostValue>{3, 1, 2, 1, 1});
  EXPECT_EQ(tree.MinIndex(), 1);
  EXPECT_EQ(tree.MinIndex(2, 5), 3);
  // Updating a later leaf to the same minimum must not steal the win.
  tree.Update(4, 1);
  EXPECT_EQ(tree.MinIndex(), 1);
  // Killing the leader hands the min to the next-lowest tied index.
  tree.Update(1, kInfiniteCost);
  EXPECT_EQ(tree.MinIndex(), 3);
}

TEST(RangeMinTreeTest, AllInfiniteStillReportsLeafZero) {
  // The solver treats an infinite minimum as "no feasible candidate"; the
  // padding leaves (also ∞) must never win over a real leaf.
  RangeMinTree tree(std::vector<CostValue>(5, kInfiniteCost));
  EXPECT_EQ(tree.MinIndex(), 0);
  EXPECT_EQ(tree.MinIndex(3, 5), 3);
}

TEST(RangeMinTreeTest, RandomizedAgainstNaiveScan) {
  Rng rng(0x7ee5);
  for (int round = 0; round < 60; ++round) {
    const int n = rng.NextInt(1, 33);  // crosses power-of-two boundaries
    std::vector<CostValue> values(n);
    for (CostValue& v : values) {
      // Small integer range forces plenty of ties; occasional ∞ models
      // blocked candidates.
      v = rng.NextBool(0.15) ? kInfiniteCost
                             : static_cast<CostValue>(rng.NextInt(0, 6));
    }
    RangeMinTree tree(values);
    ASSERT_EQ(tree.size(), n);
    for (int step = 0; step < 40; ++step) {
      const int k = rng.NextInt(0, n - 1);
      const CostValue v = rng.NextBool(0.25)
                              ? kInfiniteCost
                              : static_cast<CostValue>(rng.NextInt(0, 6));
      tree.Update(k, v);
      values[k] = v;
      ASSERT_EQ(tree.ValueAt(k), v);
      ASSERT_EQ(tree.MinIndex(), NaiveMinIndex(values, 0, n))
          << "round " << round << " step " << step;
      const int begin = rng.NextInt(0, n - 1);
      const int end = rng.NextInt(begin + 1, n);
      ASSERT_EQ(tree.MinIndex(begin, end), NaiveMinIndex(values, begin, end))
          << "round " << round << " step " << step << " range [" << begin
          << ", " << end << ")";
    }
  }
}

TEST(RangeMinTreeTest, LongUpdateRunsThatKeepOrMoveTheArgmin) {
  // Update stops re-merging at the first node whose argmin stays the same
  // leaf other than the updated one. Long runs that re-store a value, tie
  // the minimum from either side, raise or kill the argmin, or undercut it
  // reach every place where that walk can stop; after each update the
  // whole range and random sub-ranges must still match a naive scan.
  Rng rng(0xa7a1);
  for (int round = 0; round < 40; ++round) {
    const int n = rng.NextInt(1, 70);
    std::vector<CostValue> values(n);
    for (CostValue& v : values) {
      v = rng.NextBool(0.1) ? kInfiniteCost
                            : static_cast<CostValue>(rng.NextInt(0, 4));
    }
    RangeMinTree tree(values);
    for (int step = 0; step < 300; ++step) {
      const int arg = NaiveMinIndex(values, 0, n);
      const CostValue min = values[arg];
      int k = rng.NextInt(0, n - 1);
      CostValue v = values[k];  // re-store a leaf's own value
      switch (rng.NextInt(0, 5)) {
        case 0:  // re-store the argmin's value
          k = arg;
          v = min;
          break;
        case 1:  // tie the minimum, left or right of the argmin
          v = min;
          break;
        case 2:  // raise or kill the argmin, so it moves
          k = arg;
          v = rng.NextBool(0.3) ? kInfiniteCost : min + rng.NextInt(1, 3);
          break;
        case 3:  // undercut the minimum, so the argmin moves to k
          v = std::isinf(min) ? 0 : min - 1;
          break;
        case 4:  // any leaf, any value
          v = rng.NextBool(0.2) ? kInfiniteCost
                                : static_cast<CostValue>(rng.NextInt(0, 4));
          break;
        default:
          break;
      }
      tree.Update(k, v);
      values[k] = v;
      ASSERT_EQ(tree.MinIndex(), NaiveMinIndex(values, 0, n))
          << "round " << round << " step " << step;
      for (int probe = 0; probe < 4; ++probe) {
        const int begin = rng.NextInt(0, n - 1);
        const int end = rng.NextInt(begin + 1, n);
        ASSERT_EQ(tree.MinIndex(begin, end),
                  NaiveMinIndex(values, begin, end))
            << "round " << round << " step " << step << " range [" << begin
            << ", " << end << ")";
      }
    }
  }
}

}  // namespace
}  // namespace mintri
