// The ranked forest: TieredEnumerator in exact mode ranks the product of
// the connected components' ranked streams. Small hand-checked inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "test_util.h"

namespace mintri {
namespace {

using testutil::ExactTier;
using testutil::FillSet;
using testutil::MakeGraph;

Graph TwoCycles() {
  // C4 on {0..3} plus C5 on {4..8}: 2 x 5 = 10 minimal triangulations.
  Graph g(9);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  for (int i = 0; i < 5; ++i) g.AddEdge(4 + i, 4 + (i + 1) % 5);
  return g;
}

TEST(RankedForestTest, ConnectedGraphMatchesPlainEnumerator) {
  Graph g = testutil::PaperExampleGraph();
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, ExactTier());
  ASSERT_TRUE(e.init_ok());
  auto first = e.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->triangulation.Width(), 2);
  auto second = e.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->triangulation.Width(), 3);
  EXPECT_FALSE(e.Next().has_value());
}

TEST(RankedForestTest, DisconnectedProductCount) {
  Graph g = TwoCycles();
  FillInCost fill;
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {}, ExactTier());
  ASSERT_TRUE(e.init_ok());
  std::set<FillSet> produced;
  double last = 0;
  while (auto r = e.Next()) {
    const Triangulation& t = r->triangulation;
    EXPECT_GE(t.cost, last - 1e-9);  // ranked by total fill
    last = t.cost;
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
    EXPECT_EQ(t.cost, static_cast<double>(t.FillIn(g)));
    EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second);
  }
  EXPECT_EQ(produced.size(), 10u);  // 2 (C4) x 5 (C5)
}

TEST(RankedForestTest, MaxCompositionRanksWidth) {
  // K4-minus-edge (width 2) + C6 component: global width = max of parts.
  Graph g(10);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  for (int i = 0; i < 6; ++i) g.AddEdge(4 + i, 4 + (i + 1) % 6);
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, ExactTier());
  ASSERT_TRUE(e.init_ok());
  double last = -1;
  int count = 0;
  while (auto r = e.Next()) {
    const Triangulation& t = r->triangulation;
    EXPECT_GE(t.cost, last);
    EXPECT_EQ(t.cost, static_cast<double>(t.Width()));
    last = t.cost;
    ++count;
  }
  // The chordal component has one minimal triangulation, so the count is
  // C6's: 14 triangulations of a hexagon, all minimal.
  EXPECT_EQ(count, 14);
}

TEST(RankedForestTest, IsolatedVerticesAndEdges) {
  Graph g = MakeGraph(4, {{1, 2}});  // vertices 0 and 3 isolated
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, ExactTier());
  ASSERT_TRUE(e.init_ok());
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->triangulation.bags.size(), 3u);  // {0}, {1,2}, {3}
  EXPECT_EQ(r->triangulation.Width(), 1);
  EXPECT_FALSE(e.Next().has_value());
}

TEST(RankedForestTest, RankedPrefixIsGloballyOptimal) {
  // Cross-check the product order against the brute-force cost multiset.
  Graph g = TwoCycles();
  FillInCost fill;
  std::vector<double> brute;
  for (const auto& fs : testutil::BruteForceMinimalTriangulationFills(g)) {
    brute.push_back(static_cast<double>(fs.size()));
  }
  std::sort(brute.begin(), brute.end());
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {}, ExactTier());
  for (double expected : brute) {
    auto r = e.Next();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->triangulation.cost, expected);
  }
  EXPECT_FALSE(e.Next().has_value());
}

}  // namespace
}  // namespace mintri
