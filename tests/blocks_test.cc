#include "separators/blocks.h"

#include <gtest/gtest.h>

#include "separators/minimal_separators.h"
#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

TEST(BlocksTest, PaperExampleBlocks) {
  // Figure 2 shows 8 block realizations; block (S2, C42) is the only
  // non-full one (C42 = {v'} has no neighbor u).
  Graph g = testutil::PaperExampleGraph();
  VertexSet s1 = VertexSet::Of(6, {3, 4, 5});
  VertexSet s2 = VertexSet::Of(6, {0, 1});
  VertexSet s3 = VertexSet::Of(6, {1});

  auto b1 = BlocksOfSeparator(g, s1);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_TRUE(b1[0].full);
  EXPECT_TRUE(b1[1].full);

  auto b2 = BlocksOfSeparator(g, s2);
  ASSERT_EQ(b2.size(), 4u);
  int full_count = 0;
  for (const Block& b : b2) full_count += b.full ? 1 : 0;
  EXPECT_EQ(full_count, 3);  // (S2, {v'}) is not full

  auto b3 = BlocksOfSeparator(g, s3);
  ASSERT_EQ(b3.size(), 2u);
  EXPECT_TRUE(b3[0].full);
  EXPECT_TRUE(b3[1].full);
}

TEST(BlocksTest, FullBlockNeighborhoodIsSeparator) {
  for (int seed = 0; seed < 10; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(10, 0.3, seed);
    auto seps = ListMinimalSeparators(g).separators;
    for (const Block& b : AllFullBlocks(g, seps)) {
      EXPECT_EQ(g.NeighborhoodOfSet(b.component), b.separator);
      EXPECT_EQ(b.vertices, b.separator.Union(b.component));
    }
  }
}

TEST(BlocksTest, EverySeparatorHasAtLeastTwoFullBlocks) {
  for (int seed = 0; seed < 10; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.35, 100 + seed);
    for (const VertexSet& s : ListMinimalSeparators(g).separators) {
      int full = 0;
      for (const Block& b : BlocksOfSeparator(g, s)) full += b.full ? 1 : 0;
      EXPECT_GE(full, 2) << s.ToString();
    }
  }
}

TEST(BlocksTest, BlocksAreDisjointComponents) {
  Graph g = workloads::Grid(3, 3);
  for (const VertexSet& s : ListMinimalSeparators(g).separators) {
    auto blocks = BlocksOfSeparator(g, s);
    VertexSet seen(g.NumVertices());
    for (const Block& b : blocks) {
      EXPECT_FALSE(seen.Intersects(b.component));
      seen.UnionWith(b.component);
    }
    // Components plus separator cover the graph.
    seen.UnionWith(s);
    EXPECT_EQ(seen.Count(), g.NumVertices());
  }
}

}  // namespace
}  // namespace mintri
