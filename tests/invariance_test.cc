// Optimization-invariance cross-checks for the hot-path overhaul of the
// separator/PMC machinery (cached VertexSet hashes, the arena-backed
// MinimalSeparatorEnumerator, the scratch-reusing ComponentScanner): the
// optimized enumerators must produce exactly the sets the exponential
// reference implementations produce, and the paper's Figure-1 counts must
// stay pinned. A metamorphic test checks that the ranked stream does not
// depend on vertex labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "test_util.h"
#include "util/rng.h"
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

// --- Vertex-relabeling metamorphic test ----------------------------------

// The first `k` results of a ranked stream: their κ values, and the fill
// sets of every complete κ level, mapped through `to_original` and sorted.
// The last level is dropped when the stream reached k results, since it
// may have been cut.
struct RankedPrefix {
  std::vector<CostValue> costs;
  std::map<CostValue, std::vector<testutil::FillSet>> levels;
};

RankedPrefix RankPrefix(const Graph& g, const std::vector<int>& to_original,
                        bool fill_cost, TierOptions::Mode mode, int threads,
                        size_t k) {
  WidthCost width;
  FillInCost fill;
  ContextOptions options;
  options.num_threads = threads;
  TierOptions tier;
  tier.mode = mode;
  tier.decomposable_cost = true;  // width and fill both are
  TieredEnumerator e(g, fill_cost ? static_cast<const BagCost&>(fill) : width,
                     fill_cost ? CostComposition::kSum : CostComposition::kMax,
                     options, {}, tier);
  EXPECT_TRUE(e.init_ok());
  EXPECT_NE(e.tier(), SolveTier::kHeuristic);
  RankedPrefix out;
  while (out.costs.size() < k) {
    std::optional<TieredResult> r = e.Next();
    if (!r.has_value()) break;
    const Triangulation& t = r->triangulation;
    out.costs.push_back(t.cost);
    testutil::FillSet fill_set;
    for (const auto& [u, v] : testutil::FillKey(g, t.filled)) {
      const int a = to_original[u], b = to_original[v];
      fill_set.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(fill_set.begin(), fill_set.end());
    out.levels[t.cost].push_back(std::move(fill_set));
  }
  if (out.costs.size() == k) out.levels.erase(out.costs.back());
  for (auto& [cost, fill_sets] : out.levels) {
    std::sort(fill_sets.begin(), fill_sets.end());
  }
  return out;
}

// A uniformly random relabeling: vertex v of g is vertex perm[v] of the
// copy.
std::vector<int> RandomPermutation(int n, uint64_t seed) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  for (int i = n - 1; i > 0; --i) std::swap(perm[i], perm[rng.NextInt(0, i)]);
  return perm;
}

Graph Relabel(const Graph& g, const std::vector<int>& perm) {
  Graph out(g.NumVertices());
  for (const auto& [u, v] : g.Edges()) out.AddEdge(perm[u], perm[v]);
  return out;
}

// A random tree with the Figure-1 graph hanging off one of its vertices:
// 256 vertices, so every whole-graph set is 4 words wide. Tier 0 strips
// the tree and leaves one atom; exact mode ranks the whole component. Its
// two minimal triangulations are those of the Figure-1 graph. (A larger
// attachment would make exact mode, which must rank around the tree's
// ~250 separators, too slow for the Debug sanitizer build.)
Graph TreeWithPaperExample() {
  const int tree_n = 250;
  Graph tree = workloads::RandomTree(tree_n, 7700);
  Graph example = testutil::PaperExampleGraph();
  Graph g(tree_n + example.NumVertices());
  for (const auto& [u, v] : tree.Edges()) g.AddEdge(u, v);
  for (const auto& [u, v] : example.Edges()) {
    g.AddEdge(tree_n + u, tree_n + v);
  }
  g.AddEdge(17, tree_n + 3);
  return g;
}

// ROADMAP item 7: the κ sequence and the per-κ fill-set classes must
// survive a random permutation of the vertices, under width and fill, in
// exact and auto mode. The relabeled copy runs at 1 and 4 threads against
// the original at 1 thread.
TEST(OptimizationInvarianceTest, RankingSurvivesVertexRelabeling) {
  Graph disconnected(11);
  for (const auto& [u, v] : workloads::Cycle(5).Edges()) {
    disconnected.AddEdge(u, v);
  }
  for (const auto& [u, v] : workloads::ConnectedErdosRenyi(6, 0.5, 7800)
                                .Edges()) {
    disconnected.AddEdge(5 + u, 5 + v);
  }
  const std::vector<std::pair<std::string, Graph>> inputs = {
      {"er12", workloads::ConnectedErdosRenyi(12, 0.3, 7900)},
      {"grid3x3", workloads::Grid(3, 3)},
      {"disconnected", disconnected},
      {"tree+figure1", TreeWithPaperExample()},
  };
  constexpr size_t kPrefix = 200;
  for (const auto& [name, g] : inputs) {
    const int n = g.NumVertices();
    std::vector<int> identity(n);
    std::iota(identity.begin(), identity.end(), 0);
    const std::vector<int> perm = RandomPermutation(n, 8000 + n);
    std::vector<int> inverse(n);
    for (int v = 0; v < n; ++v) inverse[perm[v]] = v;
    const Graph relabeled = Relabel(g, perm);
    for (bool fill_cost : {false, true}) {
      for (TierOptions::Mode mode :
           {TierOptions::Mode::kExact, TierOptions::Mode::kAuto}) {
        SCOPED_TRACE(testing::Message()
                     << name << (fill_cost ? " fill" : " width")
                     << (mode == TierOptions::Mode::kExact ? " exact"
                                                           : " auto"));
        const RankedPrefix want =
            RankPrefix(g, identity, fill_cost, mode, 1, kPrefix);
        EXPECT_FALSE(want.levels.empty());
        for (int threads : {1, 4}) {
          SCOPED_TRACE(testing::Message() << "threads=" << threads);
          const RankedPrefix got = RankPrefix(relabeled, inverse, fill_cost,
                                              mode, threads, kPrefix);
          EXPECT_EQ(got.costs, want.costs);
          EXPECT_EQ(got.levels, want.levels);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mintri
