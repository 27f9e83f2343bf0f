#include "enumeration/ckk.h"

#include <gtest/gtest.h>

#include <set>

#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

std::vector<Triangulation> Drain(CkkEnumerator& e, size_t cap = 100000) {
  std::vector<Triangulation> out;
  while (out.size() < cap) {
    auto t = e.Next();
    if (!t.has_value()) break;
    out.push_back(std::move(*t));
  }
  return out;
}

TEST(CkkTest, PaperExampleFindsBothTriangulations) {
  Graph g = testutil::PaperExampleGraph();
  CkkEnumerator e(g);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 2u);
  std::set<int> widths;
  for (const auto& t : all) {
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
    widths.insert(t.Width());
  }
  EXPECT_EQ(widths, (std::set<int>{2, 3}));
}

TEST(CkkTest, ChordalGraphYieldsItself) {
  Graph g = workloads::Path(6);
  CkkEnumerator e(g);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].filled, g);
}

TEST(CkkTest, CompleteGraphYieldsItself) {
  Graph g = workloads::Complete(5);
  CkkEnumerator e(g);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].FillIn(g), 0);
}

class CkkPropertyTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(CkkPropertyTest, CompleteAndDuplicateFree) {
  auto [n, seed] = GetParam();
  double p = 0.2 + 0.07 * (seed % 6);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 30000 + seed);
  CkkEnumerator e(g);
  auto all = Drain(e);
  std::set<testutil::FillSet> produced;
  for (const auto& t : all) {
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
    EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second)
        << "duplicate CKK result";
  }
  EXPECT_EQ(produced, testutil::BruteForceMinimalTriangulationFills(g))
      << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, CkkPropertyTest,
    ::testing::Combine(::testing::Values(5, 6, 7, 8),
                       ::testing::Range(0, 8)));

TEST(CkkTest, CostAnnotationWhenRequested) {
  Graph g = workloads::Cycle(5);
  WidthCost width;
  CkkEnumerator e(g, &width);
  auto all = Drain(e);
  EXPECT_GT(all.size(), 1u);
  for (const auto& t : all) {
    EXPECT_EQ(t.cost, width.Evaluate(g, t.bags));
  }
}

TEST(CkkTest, FillSetDedupSurvivesHashCollisions) {
  // Regression: the enumerator used to dedup printed triangulations on the
  // bare 64-bit fill-set hash, so a collision silently dropped a distinct
  // minimal triangulation. Force every hash to collide and check that the
  // fill sets themselves are still told apart.
  FillSetDedup dedup([](const FillSetDedup::FillSet&) { return size_t{42}; });
  FillSetDedup::FillSet a = {{0, 1}};
  FillSetDedup::FillSet b = {{0, 2}};
  FillSetDedup::FillSet c = {{0, 1}, {1, 2}};
  EXPECT_TRUE(dedup.Insert(a));
  EXPECT_TRUE(dedup.Insert(b));  // same hash, different fill set
  EXPECT_TRUE(dedup.Insert(c));
  EXPECT_FALSE(dedup.Insert(a));
  EXPECT_FALSE(dedup.Insert(b));
  EXPECT_FALSE(dedup.Insert(c));
  EXPECT_EQ(dedup.Size(), 3u);

  // The production hash separates these (sanity, not a guarantee).
  EXPECT_NE(FillSetDedup::DefaultHash(a), FillSetDedup::DefaultHash(b));
}

TEST(CkkTest, NoOrderGuaranteeButCountsLbTriangCalls) {
  Graph g = workloads::Grid(3, 3);
  CkkEnumerator e(g);
  int produced = 0;
  while (produced < 20) {
    if (!e.Next().has_value()) break;
    ++produced;
  }
  EXPECT_GT(produced, 5);
  EXPECT_GE(e.num_triangulator_calls(), produced);
}

}  // namespace
}  // namespace mintri
