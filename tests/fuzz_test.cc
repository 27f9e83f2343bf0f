// Randomized differential tests ("fuzz" style): VertexSet against
// std::set<int>, Graph connectivity against a reference union-find, and a
// whole-pipeline cross-validation — Ω is a potential maximal clique iff it
// occurs as a maximal clique of some minimal triangulation (the *defining*
// property of PMCs, checked against the Parra–Scheffler brute force). A
// parallel mode reruns the separator/PMC pipeline through the
// work-stealing engine (num_threads > 1) on the same deterministic seeds,
// so the fuzzing also exercises the thread pool and sharded dedup table.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "chordal/clique_tree.h"
#include "pmc/potential_maximal_cliques.h"
#include "test_util.h"
#include "util/rng.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

class VertexSetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VertexSetFuzz, MatchesStdSetReference) {
  Rng rng(GetParam());
  const int cap = 1 + static_cast<int>(rng.NextBounded(150));
  VertexSet a(cap), b(cap);
  std::set<int> ra, rb;
  for (int op = 0; op < 300; ++op) {
    int v = rng.NextInt(0, cap - 1);
    switch (rng.NextBounded(6)) {
      case 0:
        a.Insert(v);
        ra.insert(v);
        break;
      case 1:
        a.Erase(v);
        ra.erase(v);
        break;
      case 2:
        b.Insert(v);
        rb.insert(v);
        break;
      case 3: {
        VertexSet u = a.Union(b), i = a.Intersect(b), m = a.Minus(b);
        std::set<int> ru, ri, rm;
        std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                       std::inserter(ru, ru.end()));
        std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                              std::inserter(ri, ri.end()));
        std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                            std::inserter(rm, rm.end()));
        EXPECT_EQ(u.ToVector(), std::vector<int>(ru.begin(), ru.end()));
        EXPECT_EQ(i.ToVector(), std::vector<int>(ri.begin(), ri.end()));
        EXPECT_EQ(m.ToVector(), std::vector<int>(rm.begin(), rm.end()));
        break;
      }
      case 4: {
        EXPECT_EQ(a.Count(), static_cast<int>(ra.size()));
        EXPECT_EQ(a.Empty(), ra.empty());
        EXPECT_EQ(a.First(), ra.empty() ? -1 : *ra.begin());
        EXPECT_EQ(a.Contains(v), ra.count(v) > 0);
        break;
      }
      case 5: {
        bool subset = std::includes(rb.begin(), rb.end(), ra.begin(),
                                    ra.end());
        EXPECT_EQ(a.IsSubsetOf(b), subset);
        bool intersects = false;
        for (int x : ra) intersects |= rb.count(x) > 0;
        EXPECT_EQ(a.Intersects(b), intersects);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexSetFuzz, ::testing::Range(0, 12));

class GraphFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GraphFuzz, ComponentsMatchUnionFind) {
  Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.NextBounded(40));
  Graph g(n);
  std::vector<int> uf(n);
  std::iota(uf.begin(), uf.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  int edges = static_cast<int>(rng.NextBounded(2 * n));
  for (int e = 0; e < edges; ++e) {
    int u = rng.NextInt(0, n - 1), v = rng.NextInt(0, n - 1);
    if (u == v) continue;
    g.AddEdge(u, v);
    uf[find(u)] = find(v);
  }
  std::set<int> roots;
  for (int v = 0; v < n; ++v) roots.insert(find(v));
  auto comps = g.ConnectedComponents();
  EXPECT_EQ(comps.size(), roots.size());
  // Every component is closed under the union-find relation.
  for (const VertexSet& c : comps) {
    int root = find(c.First());
    c.ForEach([&](int v) { EXPECT_EQ(find(v), root); });
  }
  EXPECT_EQ(g.IsConnected(), roots.size() == 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz, ::testing::Range(0, 12));

class PipelineCross : public ::testing::TestWithParam<int> {};

TEST_P(PipelineCross, PmcsAreExactlyTheBagsOfMinimalTriangulations) {
  // The definition of PMC (Section 5.1): Ω ∈ PMC(G) iff Ω ∈ MaxClq(H) for
  // some minimal triangulation H. Left side: our BT02 enumerator. Right
  // side: maximal cliques over the Parra–Scheffler brute-force enumeration.
  Graph g = workloads::ConnectedErdosRenyi(8, 0.2 + 0.05 * (GetParam() % 5),
                                           90000 + GetParam());
  auto pmcs = ListPotentialMaximalCliques(g).pmcs;
  std::set<VertexSet> expected;
  for (const auto& fills : testutil::BruteForceMinimalTriangulationFills(g)) {
    Graph h = g;
    for (const auto& [u, v] : fills) h.AddEdge(u, v);
    for (VertexSet& c : MaximalCliquesOfChordal(h)) {
      expected.insert(std::move(c));
    }
  }
  EXPECT_EQ(std::set<VertexSet>(pmcs.begin(), pmcs.end()), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineCross, ::testing::Range(0, 10));

// Parallel mode: the multi-threaded batch enumerators must agree with the
// serial ones on the same fixed-seed random graphs, at 2..4 threads.
class ParallelPipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelPipelineFuzz, ParallelEnginesMatchSerialOnRandomGraphs) {
  const int seed = GetParam();
  const int n = 10 + seed % 5;
  Graph g = workloads::ConnectedErdosRenyi(n, 0.2 + 0.05 * (seed % 4),
                                           96000 + seed);
  EnumerationLimits par_limits;
  par_limits.num_threads = 2 + seed % 3;

  auto serial_seps = ListMinimalSeparators(g).separators;
  std::sort(serial_seps.begin(), serial_seps.end());
  MinimalSeparatorsResult par_seps = ListMinimalSeparators(g, par_limits);
  ASSERT_EQ(par_seps.status, EnumerationStatus::kComplete);
  EXPECT_EQ(par_seps.separators, serial_seps) << "seed=" << seed;

  auto serial_pmcs = ListPotentialMaximalCliques(g).pmcs;
  PmcOptions par_options;
  par_options.limits.num_threads = par_limits.num_threads;
  PmcResult par_pmcs = ListPotentialMaximalCliques(g, par_options);
  ASSERT_EQ(par_pmcs.status, EnumerationStatus::kComplete);
  EXPECT_EQ(par_pmcs.pmcs, serial_pmcs) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelPipelineFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace mintri
