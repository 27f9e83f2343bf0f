// Optimization-invariance cross-checks for the hot-path overhaul of the
// separator/PMC machinery (cached VertexSet hashes, the arena-backed
// MinimalSeparatorEnumerator, the scratch-reusing ComponentScanner): the
// optimized enumerators must produce exactly the sets the exponential
// reference implementations produce, and the paper's Figure-1 counts must
// stay pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "test_util.h"
#include "util/timer.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

std::vector<VertexSet> Sorted(std::vector<VertexSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Fixed-seed randomized cross-check up to n = 12: the optimized
// ListMinimalSeparators must return exactly the brute-force separator set.
class OptimizedSeparatorsVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OptimizedSeparatorsVsBruteForce, ExactSetEquality) {
  auto [n, seed] = GetParam();
  double p = 0.15 + 0.05 * (seed % 6);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 7000 + 31 * seed);
  auto fast = Sorted(ListMinimalSeparators(g).separators);
  auto brute = Sorted(MinimalSeparatorsBruteForce(g));
  EXPECT_EQ(fast, brute) << "n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, OptimizedSeparatorsVsBruteForce,
    ::testing::Combine(::testing::Values(10, 11, 12),
                       ::testing::Range(0, 6)));

// Disconnected inputs exercise the lazy seeding across components.
TEST(OptimizationInvarianceTest, DisconnectedGraphMatchesBruteForce) {
  for (int seed = 0; seed < 4; ++seed) {
    Graph a = workloads::ConnectedErdosRenyi(5, 0.4, 7100 + seed);
    Graph b = workloads::ConnectedErdosRenyi(4, 0.5, 7200 + seed);
    Graph g(9);
    for (const auto& [u, v] : a.Edges()) g.AddEdge(u, v);
    for (const auto& [u, v] : b.Edges()) g.AddEdge(5 + u, 5 + v);
    auto fast = Sorted(ListMinimalSeparators(g).separators);
    auto brute = Sorted(MinimalSeparatorsBruteForce(g));
    EXPECT_EQ(fast, brute) << "seed=" << seed;
  }
}

// The optimized IsPmc (scratch tester) against its exponential reference.
TEST(OptimizationInvarianceTest, PmcEnumerationMatchesBruteForce) {
  for (int seed = 0; seed < 4; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(8, 0.3, 7300 + seed);
    PmcResult pmcs = ListPotentialMaximalCliques(g);
    ASSERT_EQ(pmcs.status, EnumerationStatus::kComplete);
    EXPECT_EQ(pmcs.pmcs, PmcsBruteForce(g)) << "seed=" << seed;
  }
}

// The paper's running example (Figure 1) stays pinned: 3 minimal
// separators, 6 potential maximal cliques, 2 minimal triangulations.
TEST(OptimizationInvarianceTest, PaperExampleCountsUnchanged) {
  Graph g = testutil::PaperExampleGraph();

  auto seps = ListMinimalSeparators(g);
  ASSERT_EQ(seps.status, EnumerationStatus::kComplete);
  EXPECT_EQ(seps.separators.size(), 3u);

  PmcResult pmcs = ListPotentialMaximalCliques(g);
  ASSERT_EQ(pmcs.status, EnumerationStatus::kComplete);
  EXPECT_EQ(pmcs.pmcs.size(), 6u);

  WidthCost cost;
  TieredEnumerator enumerator(g, cost, CostComposition::kMax, {}, {},
                              testutil::ExactTier());
  ASSERT_TRUE(enumerator.init_ok());
  int count = 0;
  while (enumerator.Next().has_value()) ++count;
  EXPECT_EQ(count, 2);
}

// An already-expired deadline must stop the stream before it produces or
// expands anything, and must be reported as truncation — deterministic
// coverage for the per-vertex deadline poll inside Next().
TEST(OptimizationInvarianceTest, ExpiredDeadlineTruncatesImmediately) {
  Graph g = workloads::ConnectedErdosRenyi(12, 0.3, 7400);
  Deadline expired(0.0);
  ASSERT_TRUE(expired.Expired());
  MinimalSeparatorEnumerator enumerator(g, g.NumVertices(), &expired);
  EXPECT_EQ(enumerator.Next(), std::nullopt);
  EXPECT_TRUE(enumerator.Truncated());
  EXPECT_EQ(enumerator.NumDiscovered(), 0u);

  EnumerationLimits limits;
  limits.time_limit_seconds = 0.0;
  auto result = ListMinimalSeparators(g, limits);
  EXPECT_EQ(result.status, EnumerationStatus::kTruncated);
  EXPECT_TRUE(result.separators.empty());
}

// A deadline that expires mid-enumeration still yields a valid prefix:
// everything produced must be a genuine minimal separator.
TEST(OptimizationInvarianceTest, MidStreamDeadlineYieldsValidPrefix) {
  Graph g = workloads::ConnectedErdosRenyi(16, 0.3, 7500);
  Deadline deadline(1e9);  // effectively never, but non-infinite: polled
  MinimalSeparatorEnumerator enumerator(g, g.NumVertices(), &deadline);
  int produced = 0;
  while (produced < 50) {
    auto s = enumerator.Next();
    if (!s.has_value()) break;
    EXPECT_TRUE(IsMinimalSeparator(g, *s)) << s->ToString();
    ++produced;
  }
  EXPECT_FALSE(enumerator.Truncated());
  EXPECT_GT(produced, 0);
}

// A max_results cap equal to the exact answer-set size must still report
// completeness (lazy seeding must not misreport it as truncation), while
// any smaller cap reports a truncated prefix.
TEST(OptimizationInvarianceTest, ExactCapIsStillComplete) {
  Graph g = workloads::Cycle(8);  // exactly 8*(8-3)/2 = 20 minimal separators
  EnumerationLimits limits;
  limits.max_results = 20;
  auto exact = ListMinimalSeparators(g, limits);
  EXPECT_EQ(exact.status, EnumerationStatus::kComplete);
  EXPECT_EQ(exact.separators.size(), 20u);

  limits.max_results = 19;
  auto capped = ListMinimalSeparators(g, limits);
  EXPECT_EQ(capped.status, EnumerationStatus::kTruncated);
  EXPECT_EQ(capped.separators.size(), 19u);
}

// The bounded variant stays exact under the overhaul.
TEST(OptimizationInvarianceTest, BoundedEnumerationStillExact) {
  for (int seed = 0; seed < 4; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(10, 0.3, 7600 + seed);
    for (int bound = 2; bound <= 4; ++bound) {
      auto bounded = Sorted(ListMinimalSeparatorsBounded(g, bound).separators);
      std::vector<VertexSet> expected;
      for (const VertexSet& s : MinimalSeparatorsBruteForce(g)) {
        if (s.Count() <= bound) expected.push_back(s);
      }
      EXPECT_EQ(bounded, Sorted(std::move(expected)))
          << "seed=" << seed << " bound=" << bound;
    }
  }
}

}  // namespace
}  // namespace mintri
