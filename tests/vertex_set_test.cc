#include "graph/vertex_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "graph/bitset_kernels.h"

namespace mintri {
namespace {

TEST(VertexSetTest, EmptyByDefault) {
  VertexSet s(10);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.First(), -1);
  EXPECT_EQ(s.capacity(), 10);
}

TEST(VertexSetTest, InsertEraseContains) {
  VertexSet s(100);
  s.Insert(3);
  s.Insert(64);
  s.Insert(99);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(99));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Count(), 3);
  s.Erase(64);
  EXPECT_FALSE(s.Contains(64));
  EXPECT_EQ(s.Count(), 2);
}

TEST(VertexSetTest, AllCoversExactlyTheUniverse) {
  for (int cap : {1, 63, 64, 65, 128, 200}) {
    VertexSet s = VertexSet::All(cap);
    EXPECT_EQ(s.Count(), cap) << "capacity " << cap;
    EXPECT_TRUE(s.Contains(cap - 1));
  }
}

TEST(VertexSetTest, FirstReturnsSmallest) {
  VertexSet s(130);
  s.Insert(127);
  s.Insert(65);
  s.Insert(90);
  EXPECT_EQ(s.First(), 65);
}

TEST(VertexSetTest, SetAlgebra) {
  VertexSet a = VertexSet::Of(10, {1, 2, 3});
  VertexSet b = VertexSet::Of(10, {3, 4});
  EXPECT_EQ(a.Union(b), VertexSet::Of(10, {1, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), VertexSet::Of(10, {3}));
  EXPECT_EQ(a.Minus(b), VertexSet::Of(10, {1, 2}));
  EXPECT_EQ(VertexSet::Of(3, {0, 1}).Complement(), VertexSet::Of(3, {2}));
}

TEST(VertexSetTest, SubsetAndIntersects) {
  VertexSet a = VertexSet::Of(70, {1, 65});
  VertexSet b = VertexSet::Of(70, {1, 2, 65});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(VertexSet::Of(70, {3, 66})));
  EXPECT_TRUE(VertexSet(70).IsSubsetOf(a));
}

TEST(VertexSetTest, ForEachVisitsInIncreasingOrder) {
  VertexSet s = VertexSet::Of(200, {0, 7, 64, 128, 199});
  std::vector<int> seen;
  s.ForEach([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 7, 64, 128, 199}));
  EXPECT_EQ(s.ToVector(), seen);
}

TEST(VertexSetTest, ToString) {
  EXPECT_EQ(VertexSet::Of(10, {1, 5}).ToString(), "{1,5}");
  EXPECT_EQ(VertexSet(10).ToString(), "{}");
}

TEST(VertexSetTest, OrderingAndHashing) {
  VertexSet a = VertexSet::Of(10, {1});
  VertexSet b = VertexSet::Of(10, {2});
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, VertexSet::Of(10, {1}));
  EXPECT_EQ(a.Hash(), VertexSet::Of(10, {1}).Hash());
  std::set<VertexSet> ordered = {a, b, a};
  EXPECT_EQ(ordered.size(), 2u);
}

TEST(VertexSetTest, SingleAndFromVector) {
  EXPECT_EQ(VertexSet::Single(5, 3), VertexSet::Of(5, {3}));
  EXPECT_EQ(VertexSet::FromVector(5, {0, 2}), VertexSet::Of(5, {0, 2}));
}

TEST(VertexSetTest, HashIsContentDefinedAcrossConstructionPaths) {
  // The same element set must hash identically no matter how it was built:
  // incremental Insert/Erase (cache maintained in place), bulk word ops
  // (cache invalidated, recomputed on demand), or fused assignments.
  VertexSet by_insert(70);
  by_insert.Insert(1);
  by_insert.Insert(65);
  by_insert.Insert(9);
  by_insert.Erase(9);

  VertexSet by_ops = VertexSet::Of(70, {1, 2, 65});
  by_ops.MinusWith(VertexSet::Of(70, {2}));

  VertexSet by_union(70);
  by_union.AssignUnionOf(VertexSet::Of(70, {1}), VertexSet::Of(70, {65}));

  EXPECT_EQ(by_insert, by_ops);
  EXPECT_EQ(by_insert.Hash(), by_ops.Hash());
  EXPECT_EQ(by_insert.Hash(), by_union.Hash());

  // Erase back to empty matches a fresh empty set.
  by_insert.Erase(1);
  by_insert.Erase(65);
  EXPECT_EQ(by_insert.Hash(), VertexSet(70).Hash());

  // Duplicate Insert/Erase must not perturb the maintained hash.
  VertexSet dup = VertexSet::Of(70, {4});
  uint64_t h = dup.Hash();
  dup.Insert(4);
  dup.Erase(5);
  EXPECT_EQ(dup.Hash(), h);
}

TEST(VertexSetTest, ResetAndAssignHelpers) {
  VertexSet s = VertexSet::Of(130, {0, 64, 129});
  s.Reset(130);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.capacity(), 130);

  s.ResetAll(65);
  EXPECT_EQ(s.Count(), 65);
  EXPECT_EQ(s, VertexSet::All(65));

  VertexSet c;
  c.AssignComplementOf(VertexSet::Of(65, {0, 64}));
  EXPECT_EQ(c, VertexSet::Of(65, {0, 64}).Complement());
  EXPECT_EQ(c.Hash(), VertexSet::Of(65, {0, 64}).Complement().Hash());

  VertexSet u;
  u.AssignUnionOf(VertexSet::Of(70, {3, 69}), VertexSet::Of(70, {4}));
  EXPECT_EQ(u, VertexSet::Of(70, {3, 4, 69}));
}

TEST(VertexSetTest, EqualityIsCapacityAware) {
  // Regression: equal-word sets over different universes used to compare
  // equal (operator== never looked at the capacity). {0} over 64 vertices
  // and {0} over 70 vertices have identical words but are different sets.
  EXPECT_NE(VertexSet::Of(64, {0}), VertexSet::Of(70, {0}));
  EXPECT_NE(VertexSet(3), VertexSet(4));
  EXPECT_EQ(VertexSet::Of(70, {0}), VertexSet::Of(70, {0}));
  // Same capacity, different word paths, still equal.
  VertexSet s(70);
  s.Insert(0);
  EXPECT_EQ(s, VertexSet::Of(70, {0}));
}

TEST(VertexSetTest, OrderingIsATotalOrderAcrossMixedWordCounts) {
  // Regression: operator< documented "size of words then lexicographic"
  // but compared purely lexicographically, so {0}/64 and {0}/70 (identical
  // words, different universes) were mutually un-ordered yet un-equal
  // under the capacity-aware operator==. Capacity now orders first.
  const VertexSet sets[] = {
      VertexSet(3),           VertexSet::Of(10, {1}),
      VertexSet::Of(64, {0}), VertexSet::Of(70, {0}),
      VertexSet::Of(70, {1}), VertexSet::Of(128, {0}),
      VertexSet::Of(128, {0, 64}),
  };
  for (const VertexSet& a : sets) {
    for (const VertexSet& b : sets) {
      // Trichotomy: exactly one of a<b, b<a, a==b.
      const int ways = (a < b ? 1 : 0) + (b < a ? 1 : 0) + (a == b ? 1 : 0);
      EXPECT_EQ(ways, 1) << a.ToString() << " vs " << b.ToString();
    }
  }
  // The documented order: capacity first, then lexicographic on words.
  EXPECT_LT(VertexSet::Of(64, {0}), VertexSet::Of(70, {0}));
  EXPECT_LT(VertexSet::Of(70, {0}), VertexSet::Of(70, {1}));
  std::set<VertexSet> mixed(std::begin(sets), std::end(sets));
  EXPECT_EQ(mixed.size(), std::size(sets));
}

TEST(VertexSetDeathTest, MixedCapacityOperationsAbortInEveryBuild) {
  // The capacity precondition is a checked policy, not a debug-only
  // assert: Release builds abort too.
  VertexSet a = VertexSet::Of(64, {0});
  const VertexSet b = VertexSet::Of(70, {0});
  EXPECT_DEATH(a.UnionWith(b), "capacity mismatch in UnionWith");
  EXPECT_DEATH(a.IntersectWith(b), "capacity mismatch in IntersectWith");
  EXPECT_DEATH(a.MinusWith(b), "capacity mismatch in MinusWith");
  EXPECT_DEATH((void)a.IsSubsetOf(b), "capacity mismatch in IsSubsetOf");
  EXPECT_DEATH((void)a.Intersects(b), "capacity mismatch in Intersects");
  EXPECT_DEATH(a.AssignUnionOf(a, b), "capacity mismatch in AssignUnionOf");
}

// ---------------------------------------------------------------------------
// Small-buffer (inline <-> heap) spill boundary.
//
// VertexSet's words live inline in the object up to 128 vertices (2 words)
// and spill to a heap buffer above. The tests below pin (1) where the
// boundary sits and (2) that values, hashes, and semantics are identical on
// both sides of it — including for objects moved/copied across it.
// ---------------------------------------------------------------------------

// The capacities the differential tests sweep: both sides of each word
// boundary (63/64/65, 127/128/129) plus one deep-heap capacity of 10 words.
const int kSpillCapacities[] = {63, 64, 65, 127, 128, 129, 640};

TEST(VertexSetSpillTest, InlineExactlyUpTo128Vertices) {
  for (int cap : kSpillCapacities) {
    SCOPED_TRACE(cap);
    VertexSet s(cap);
    EXPECT_EQ(s.StoredInline(), cap <= 128);
    VertexSet all = VertexSet::All(cap);
    EXPECT_EQ(all.StoredInline(), cap <= 128);
  }
  // The storage class itself pins the same constant.
  EXPECT_EQ(bitset::WordStorage::kInlineWords * 64, 128u);
}

TEST(VertexSetSpillTest, RandomizedDifferentialAgainstStdSet) {
  // Drive a VertexSet and a std::set<int> reference through the same
  // random mutation sequence at every boundary capacity; the bitset must
  // agree on membership, count, iteration order, and hash (against a
  // freshly built, never-mutated twin — catching stale hash caches).
  std::mt19937 rng(20260808);
  for (int cap : kSpillCapacities) {
    SCOPED_TRACE(cap);
    VertexSet s(cap);
    std::set<int> ref;
    std::uniform_int_distribution<int> pick_v(0, cap - 1);
    std::uniform_int_distribution<int> pick_op(0, 5);
    for (int step = 0; step < 400; ++step) {
      const int v = pick_v(rng);
      switch (pick_op(rng)) {
        case 0:
        case 1:
          s.Insert(v);
          ref.insert(v);
          break;
        case 2:
          s.Erase(v);
          ref.erase(v);
          break;
        case 3: {  // copy round-trip (possibly across the boundary)
          VertexSet copy = s;
          s = copy;
          break;
        }
        case 4: {  // move round-trip
          VertexSet moved = std::move(s);
          s = std::move(moved);
          break;
        }
        case 5: {  // union with a singleton, exercising the kernel path
          s.UnionWith(VertexSet::Single(cap, v));
          ref.insert(v);
          break;
        }
      }
      ASSERT_EQ(s.Count(), static_cast<int>(ref.size()));
    }
    EXPECT_EQ(s.ToVector(), std::vector<int>(ref.begin(), ref.end()));
    EXPECT_EQ(s, VertexSet::FromVector(cap, s.ToVector()));
    EXPECT_EQ(s.Hash(), VertexSet::FromVector(cap, s.ToVector()).Hash());
  }
}

TEST(VertexSetSpillTest, CopyAndMoveAcrossTheBoundary) {
  // A heap set assigned into an inline-storage object and vice versa.
  VertexSet small = VertexSet::Of(100, {0, 64, 99});
  VertexSet big = VertexSet::Of(300, {0, 64, 150, 299});
  ASSERT_TRUE(small.StoredInline());
  ASSERT_FALSE(big.StoredInline());

  VertexSet t = small;  // starts inline
  t = big;              // copy-assign forces a spill
  EXPECT_FALSE(t.StoredInline());
  EXPECT_EQ(t, big);
  t = small;  // shrinking keeps the (now heap) buffer, vector-style
  EXPECT_EQ(t, small);
  EXPECT_EQ(t.Hash(), small.Hash());

  VertexSet m = std::move(t);  // steals the heap buffer
  EXPECT_EQ(m, small);

  VertexSet m2 = std::move(big);  // move across: m2 owns the heap buffer
  EXPECT_FALSE(m2.StoredInline());
  EXPECT_EQ(m2, VertexSet::Of(300, {0, 64, 150, 299}));

  VertexSet inline_moved = std::move(small);  // inline move copies words
  EXPECT_TRUE(inline_moved.StoredInline());
  EXPECT_EQ(inline_moved, VertexSet::Of(100, {0, 64, 99}));
}

TEST(VertexSetSpillTest, SelfAssignmentIsSafeOnBothSides) {
  for (int cap : {100, 300}) {
    SCOPED_TRACE(cap);
    VertexSet s = VertexSet::Of(cap, {1, 2, 3, 64});
    const VertexSet expect = s;
    VertexSet& alias = s;
    s = alias;
    EXPECT_EQ(s, expect);
    s = std::move(alias);
    EXPECT_EQ(s, expect);
  }
}

TEST(VertexSetSpillTest, HashCacheSurvivesTheSpill) {
  // Reset() onto a wider universe reallocates the words (inline -> heap);
  // the incremental hash must stay in sync with a from-scratch build
  // through every mix of cached and recomputed states.
  VertexSet s(64);
  s.Insert(5);
  (void)s.Hash();  // warm the cache while inline
  s.Reset(640);    // spill; Reset must leave the empty-set hash
  EXPECT_EQ(s.Hash(), VertexSet(640).Hash());
  s.Insert(5);
  s.Insert(639);
  EXPECT_EQ(s.Hash(), VertexSet::Of(640, {5, 639}).Hash());
  s.Erase(639);
  EXPECT_EQ(s.Hash(), VertexSet::Of(640, {5}).Hash());
  // Word-parallel mutation after the spill invalidates and recomputes.
  s.UnionWith(VertexSet::Of(640, {200, 400}));
  EXPECT_EQ(s.Hash(), VertexSet::Of(640, {5, 200, 400}).Hash());
}

TEST(VertexSetSpillDeathTest, MixedCapacityAcrossTheBoundaryStillAborts) {
  // The capacity guard must not care which storage class each side uses.
  VertexSet inline_side = VertexSet::Of(64, {0});
  const VertexSet heap_side = VertexSet::Of(640, {0});
  EXPECT_DEATH(inline_side.UnionWith(heap_side),
               "capacity mismatch in UnionWith");
  EXPECT_DEATH((void)heap_side.IsSubsetOf(inline_side),
               "capacity mismatch in IsSubsetOf");
}

TEST(VertexSetTest, ForEachWhileStopsEarly) {
  VertexSet s = VertexSet::Of(200, {0, 7, 64, 128, 199});
  std::vector<int> seen;
  EXPECT_FALSE(s.ForEachWhile([&](int v) {
    seen.push_back(v);
    return v < 64;
  }));
  EXPECT_EQ(seen, (std::vector<int>{0, 7, 64}));
  EXPECT_TRUE(s.ForEachWhile([](int) { return true; }));
}

}  // namespace
}  // namespace mintri
