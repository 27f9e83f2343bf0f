// End-to-end integration test on the paper's Figure-1 running example:
// drives the full pipeline (minimal separators -> potential maximal cliques
// -> triangulation context -> ranked enumeration) and asserts the exact
// counts stated in the paper: 3 minimal separators, 6 PMCs, and 2 minimal
// triangulations.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "chordal/chordality.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "test_util.h"
#include "triang/context.h"

namespace mintri {
namespace {

VertexSet Make(int n, std::initializer_list<int> vs) {
  VertexSet s(n);
  for (int v : vs) s.Insert(v);
  return s;
}

TEST(PaperExample, FullPipelineMatchesFigure1) {
  const Graph g = testutil::PaperExampleGraph();
  const int n = g.NumVertices();

  // Stage 1: minimal separators. Figure 1 lists exactly three:
  // {w1,w2,w3} = {3,4,5}, {u,v} = {0,1}, and {v} = {1}.
  MinimalSeparatorsResult seps = ListMinimalSeparators(g);
  ASSERT_EQ(seps.status, EnumerationStatus::kComplete);
  std::set<VertexSet> sep_set(seps.separators.begin(), seps.separators.end());
  EXPECT_EQ(sep_set.size(), 3u);
  EXPECT_TRUE(sep_set.count(Make(n, {3, 4, 5})));
  EXPECT_TRUE(sep_set.count(Make(n, {0, 1})));
  EXPECT_TRUE(sep_set.count(Make(n, {1})));

  // Stage 2: potential maximal cliques — six of them.
  PmcResult pmcs = ListPotentialMaximalCliques(g);
  ASSERT_EQ(pmcs.status, EnumerationStatus::kComplete);
  std::set<VertexSet> pmc_set(pmcs.pmcs.begin(), pmcs.pmcs.end());
  EXPECT_EQ(pmc_set.size(), 6u);
  for (const VertexSet& omega : pmc_set) {
    EXPECT_TRUE(IsPmc(g, omega));
  }

  // Stage 3: the shared context used by every MinTriang/RankedTriang call
  // sees the same separator and PMC sets.
  std::optional<TriangulationContext> context = TriangulationContext::Build(g);
  ASSERT_TRUE(context.has_value());
  EXPECT_EQ(context->minimal_separators().size(), 3u);
  EXPECT_EQ(context->pmcs().size(), 6u);

  // Stage 4: ranked enumeration produces exactly the two minimal
  // triangulations, in nondecreasing cost order, and their fill sets match
  // the Parra-Scheffler brute force.
  WidthCost cost;
  TieredEnumerator enumerator(g, cost, CostComposition::kMax, {}, {},
                              testutil::ExactTier());
  ASSERT_TRUE(enumerator.init_ok());

  std::set<testutil::FillSet> enumerated;
  CostValue last_cost = 0;
  int rank = 0;
  while (auto r = enumerator.Next()) {
    const Triangulation& t = r->triangulation;
    ++rank;
    if (rank > 1) {
      EXPECT_GE(t.cost, last_cost);
    }
    last_cost = t.cost;
    EXPECT_TRUE(IsChordal(t.filled));
    enumerated.insert(testutil::FillKey(g, t.filled));
    ASSERT_LE(rank, 2) << "more than 2 minimal triangulations enumerated";
  }
  EXPECT_EQ(rank, 2);
  EXPECT_EQ(enumerated, testutil::BruteForceMinimalTriangulationFills(g));
}

}  // namespace
}  // namespace mintri
