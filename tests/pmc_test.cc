#include "pmc/potential_maximal_cliques.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "separators/minimal_separators.h"
#include "test_util.h"
#include "workloads/families.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

std::vector<VertexSet> EnumeratePmcs(const Graph& g, int num_threads = 1,
                                     int max_size =
                                         std::numeric_limits<int>::max()) {
  PmcOptions options;
  options.limits.num_threads = num_threads;
  options.max_size = max_size;
  PmcResult r = ListPotentialMaximalCliques(g, options);
  EXPECT_EQ(r.status, EnumerationStatus::kComplete);
  return r.pmcs;
}

std::vector<VertexSet> BruteForceUpTo(const Graph& g, int max_size) {
  std::vector<VertexSet> out;
  for (VertexSet& p : PmcsBruteForce(g)) {
    if (p.Count() <= max_size) out.push_back(std::move(p));
  }
  return out;
}

// Two random graphs side by side, the second relabeled after the first.
Graph DisjointUnion(const Graph& a, const Graph& b) {
  const int na = a.NumVertices();
  Graph g(na + b.NumVertices());
  for (const auto& [u, v] : a.Edges()) g.AddEdge(u, v);
  for (const auto& [u, v] : b.Edges()) g.AddEdge(na + u, na + v);
  return g;
}

// A digest of a PMC list that does not depend on VertexSet's own hash:
// the sum over PMCs of a splitmix fold of their sorted vertex ids.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t PmcDigest(const std::vector<VertexSet>& pmcs) {
  uint64_t sum = 0;
  for (const VertexSet& p : pmcs) {
    uint64_t h = 0;
    p.ForEach([&](int v) { h = Mix(h ^ static_cast<uint64_t>(v + 1)); });
    sum += h;
  }
  return sum;
}

// g relabeled into a BFS order from vertex 0, so that every prefix
// 0..k-1 induces a connected graph.
Graph InBfsOrder(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<int> order = {0};
  VertexSet seen = VertexSet::Single(n, 0);
  for (size_t head = 0; head < order.size(); ++head) {
    g.Neighbors(order[head]).ForEach([&](int u) {
      if (!seen.Contains(u)) {
        seen.Insert(u);
        order.push_back(u);
      }
    });
  }
  std::vector<int> new_of_old(n);
  for (int i = 0; i < n; ++i) new_of_old[order[i]] = i;
  Graph out(n);
  for (const auto& [u, v] : g.Edges()) {
    out.AddEdge(new_of_old[u], new_of_old[v]);
  }
  return out;
}

// G_k: the subgraph induced by vertices 0..k-1, labels kept.
Graph Prefix(const Graph& g, int k) {
  VertexSet keep(g.NumVertices());
  for (int v = 0; v < k; ++v) keep.Insert(v);
  return g.InducedSubgraph(keep);
}

// s with its vertices re-read in a universe of `capacity` vertices (which
// must hold all of them).
VertexSet Recap(const VertexSet& s, int capacity) {
  VertexSet out(capacity);
  s.ForEach([&](int v) { out.Insert(v); });
  return out;
}

bool Has(const std::vector<VertexSet>& sets, const VertexSet& s) {
  return std::find(sets.begin(), sets.end(), s) != sets.end();
}

TEST(IsPmcTest, PaperExamplePmcs) {
  Graph g = testutil::PaperExampleGraph();
  // 0=u, 1=v, 2=v', 3=w1, 4=w2, 5=w3. Example 5.2 names {u,w1,w2,w3} and
  // {w1,u,v}; the full PMC set is the bags of T1 and T2 of Figure 1(c).
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 3, 4, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {1, 3, 4, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 3})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 4})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {1, 2})));
  // Non-PMCs.
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {0, 1})));     // minimal separator
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {3, 4, 5})));  // minimal separator
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {2})));        // inside a bag
  EXPECT_FALSE(IsPmc(g, VertexSet(6)));                 // empty
}

TEST(IsPmcTest, CliqueOfCompleteGraph) {
  Graph g = workloads::Complete(4);
  EXPECT_TRUE(IsPmc(g, g.Vertices()));
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(4, {0, 1})));
}

TEST(PmcEnumerationTest, PaperExampleHasSixPmcs) {
  Graph g = testutil::PaperExampleGraph();
  auto pmcs = EnumeratePmcs(g);
  EXPECT_EQ(pmcs.size(), 6u);
}

TEST(PmcEnumerationTest, ChordalGraphPmcsAreItsMaximalCliques) {
  // A chordal graph is its own unique minimal triangulation, so its PMCs
  // are exactly its maximal cliques.
  Graph g = workloads::Path(5);
  auto pmcs = EnumeratePmcs(g);
  EXPECT_EQ(pmcs.size(), 4u);
  for (const VertexSet& p : pmcs) EXPECT_EQ(p.Count(), 2);
}

TEST(PmcEnumerationTest, CycleN) {
  // C_n has n(n-3)/2 + n ... the PMCs are the triangle-candidates {i, j, k}
  // that appear in some minimal triangulation; for C4: {0,1,2},{0,2,3},
  // {0,1,3},{1,2,3} — 4 PMCs.
  auto pmcs = EnumeratePmcs(workloads::Cycle(4));
  EXPECT_EQ(pmcs.size(), 4u);
  for (const VertexSet& p : pmcs) EXPECT_EQ(p.Count(), 3);
}

// The crucial completeness check: incremental BT02 enumeration vs the
// brute-force reference on many random graphs, across the density spectrum.
class PmcVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PmcVsBruteForce, IncrementalMatchesBruteForce) {
  auto [n, seed] = GetParam();
  double p = 0.15 + 0.07 * (seed % 10);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 4000 + seed);
  auto fast = EnumeratePmcs(g);
  auto brute = PmcsBruteForce(g);
  EXPECT_EQ(fast, brute) << "n=" << n << " seed=" << seed << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PmcVsBruteForce,
    ::testing::Combine(::testing::Values(5, 6, 7, 8, 9, 10),
                       ::testing::Range(0, 10)));

TEST(PmcEnumerationTest, NamedGraphsMatchBruteForce) {
  std::vector<Graph> graphs = {
      workloads::Petersen(),      workloads::Grid(3, 3),
      workloads::Cycle(7),        workloads::CompleteBipartite(3, 4),
      workloads::Hypercube(3),    workloads::Mycielski(4),
      testutil::PaperExampleGraph()};
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(EnumeratePmcs(graphs[i]), PmcsBruteForce(graphs[i]))
        << "graph #" << i;
  }
}

TEST(PmcEnumerationTest, EveryMinimalSeparatorIsCoveredBySomePmc) {
  // Structural invariant: each minimal separator S is a proper subset of at
  // least one PMC (it is saturated in some minimal triangulation, and lies
  // inside a maximal clique there).
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.3, 7000 + seed);
    auto seps = ListMinimalSeparators(g).separators;
    auto pmcs = EnumeratePmcs(g);
    for (const VertexSet& s : seps) {
      bool covered = false;
      for (const VertexSet& p : pmcs) {
        if (s.IsSubsetOf(p) && !(s == p)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "separator " << s.ToString();
    }
  }
}

TEST(PmcEnumerationTest, SingleVertexAndSingleEdge) {
  Graph g1(1);
  auto pmcs1 = EnumeratePmcs(g1);
  ASSERT_EQ(pmcs1.size(), 1u);
  EXPECT_EQ(pmcs1[0], VertexSet::Single(1, 0));

  Graph g2 = MakeGraph(2, {{0, 1}});
  auto pmcs2 = EnumeratePmcs(g2);
  ASSERT_EQ(pmcs2.size(), 1u);
  EXPECT_EQ(pmcs2[0], VertexSet::All(2));
}

// The two lemmas behind the enumerator's case analysis, checked against
// brute force at every prefix step G_i → G_{i+1} with new vertex a = i:
// (a) for Ω' ∈ Π(G_i), exactly one of Ω' and Ω' ∪ {a} is in Π(G_{i+1}),
//     and it is Ω' ∪ {a} iff a's component of G_{i+1} \ Ω' is full;
// (b) every Ω ∈ Π(G_{i+1}) with a ∈ Ω has Ω \ {a} ∈ Π(G_i) ∪ Δ(G_{i+1}).
TEST(PmcLemmaTest, EveryPrefixStepObeysBothLemmas) {
  for (int seed = 0; seed < 30; ++seed) {
    const int n = 6 + seed % 6;  // 6..11
    const double p = 0.2 + 0.06 * (seed % 5);
    const Graph g =
        InBfsOrder(workloads::ConnectedErdosRenyi(n, p, 15000 + seed));
    std::vector<VertexSet> prev = PmcsBruteForce(Prefix(g, 1));
    for (int i = 1; i < n; ++i) {
      const Graph next = Prefix(g, i + 1);
      ASSERT_TRUE(next.IsConnected());
      const int a = i;
      const std::vector<VertexSet> pmcs = PmcsBruteForce(next);
      const std::vector<VertexSet> seps = MinimalSeparatorsBruteForce(next);
      for (const VertexSet& lifted : prev) {
        const VertexSet omega = Recap(lifted, i + 1);
        VertexSet with_a = omega;
        with_a.Insert(a);
        const VertexSet c = next.ComponentOf(a, omega);
        VertexSet nb(i + 1);
        c.ForEach([&](int v) { nb.UnionWith(next.Neighbors(v)); });
        nb.MinusWith(c);
        EXPECT_NE(Has(pmcs, omega), Has(pmcs, with_a))
            << "seed=" << seed << " i=" << i << " Ω'=" << omega.ToString();
        EXPECT_EQ(Has(pmcs, with_a), nb == omega)
            << "seed=" << seed << " i=" << i << " Ω'=" << omega.ToString();
      }
      for (const VertexSet& omega : pmcs) {
        if (!omega.Contains(a)) continue;
        VertexSet rest = omega;
        rest.Erase(a);
        EXPECT_TRUE(Has(prev, Recap(rest, i)) || Has(seps, rest))
            << "seed=" << seed << " i=" << i << " Ω=" << omega.ToString();
      }
      prev = pmcs;
    }
  }
}

// Brute-force differentials of the pruned case analysis at one and four
// threads: four threads route every prefix step past the parallel cutover
// through ParallelStep, whose case-1/2 verdicts can meet duplicates.
class PmcDifferential : public ::testing::TestWithParam<int> {
 protected:
  int threads() const { return GetParam(); }
};

TEST_P(PmcDifferential, SparseAndDisconnectedMatchBruteForce) {
  for (int seed = 0; seed < 40; ++seed) {
    const int n = 6 + seed % 8;  // 6..13
    const double p = 0.08 + 0.03 * (seed % 5);  // 0.08..0.20
    Graph g = workloads::ErdosRenyi(n, p, 11000 + seed);
    EXPECT_EQ(EnumeratePmcs(g, threads()), PmcsBruteForce(g))
        << "n=" << n << " p=" << p << " seed=" << seed;
  }
  for (int seed = 0; seed < 12; ++seed) {
    Graph g = DisjointUnion(
        workloads::ConnectedErdosRenyi(5 + seed % 3, 0.4, 12000 + seed),
        workloads::ConnectedErdosRenyi(6 + seed % 3, 0.3, 12100 + seed));
    EXPECT_EQ(EnumeratePmcs(g, threads()), PmcsBruteForce(g))
        << "seed=" << seed;
  }
}

// Graphs with 45–200 PMCs: most of their late prefix steps have enough
// candidate sources to pass the parallel cutover.
TEST_P(PmcDifferential, LargerGraphsMatchBruteForce) {
  for (int seed = 0; seed < 16; ++seed) {
    const int n = 13 + seed % 4;  // 13..16
    const double p = 0.2 + 0.05 * (seed % 4);
    Graph g = workloads::ConnectedErdosRenyi(n, p, 13000 + seed);
    EXPECT_EQ(EnumeratePmcs(g, threads()), PmcsBruteForce(g))
        << "n=" << n << " p=" << p << " seed=" << seed;
  }
}

TEST_P(PmcDifferential, BoundedRunsMatchFilteredBruteForce) {
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(8, 0.35, 6000 + seed);
    for (int bound = 2; bound <= 4; ++bound) {
      EXPECT_EQ(EnumeratePmcs(g, threads(), bound), BruteForceUpTo(g, bound))
          << "n=8 seed=" << seed << " bound=" << bound;
    }
  }
  for (int seed = 0; seed < 12; ++seed) {
    const int n = 11 + seed % 5;  // 11..15
    Graph g = seed % 3 == 0
                  ? workloads::ErdosRenyi(n, 0.2, 14000 + seed)
                  : workloads::ConnectedErdosRenyi(n, 0.3, 14000 + seed);
    for (int bound = 2; bound <= 6; ++bound) {
      EXPECT_EQ(EnumeratePmcs(g, threads(), bound), BruteForceUpTo(g, bound))
          << "n=" << n << " seed=" << seed << " bound=" << bound;
    }
  }
}

TEST_P(PmcDifferential, CountsTheTestsItRuns) {
  Graph g = workloads::Grid(4, 4);
  PmcOptions options;
  options.limits.num_threads = threads();
  PmcResult r = ListPotentialMaximalCliques(g, options);
  ASSERT_EQ(r.status, EnumerationStatus::kComplete);
  // Every PMC of every prefix was decided once (by IsPmc or by the scan
  // that lifts a prefix PMC), so the final Π(G) alone bounds the count from
  // below.
  EXPECT_GE(r.num_tests, r.pmcs.size());
}

INSTANTIATE_TEST_SUITE_P(Threads, PmcDifferential, ::testing::Values(1, 4));

// Π(G) of family graphs pinned to the enumeration before the case-4
// restriction to new separators: the count and PmcDigest of the sorted
// list, identical at one and four threads.
struct PinnedPmcs {
  const char* family;
  const char* graph;
  size_t count;
  uint64_t digest;
};

class PinnedFamilyPmcs : public ::testing::TestWithParam<int> {};

TEST_P(PinnedFamilyPmcs, CountAndDigestUnchanged) {
  const PinnedPmcs pins[] = {
      {"Grids", "grid5x5", 4785, 0x2d36e92434bbd74cULL},
      {"Grids", "grid6x6", 68270, 0xe62d933d4cb552f2ULL},
      {"CSP", "csp_rand_5", 7687, 0x751fae5ec21abbcbULL},
      {"Segmentation", "segment_0", 11258, 0x06a9f6780b0dfe23ULL},
  };
  for (const PinnedPmcs& pin : pins) {
    const Graph* g = nullptr;
    const workloads::DatasetFamily family = workloads::FamilyByName(pin.family);
    for (const workloads::DatasetGraph& dg : family.graphs) {
      if (dg.name == pin.graph) g = &dg.graph;
    }
    ASSERT_NE(g, nullptr) << pin.graph;
    const std::vector<VertexSet> pmcs = EnumeratePmcs(*g, GetParam());
    EXPECT_EQ(pmcs.size(), pin.count) << pin.graph;
    EXPECT_EQ(PmcDigest(pmcs), pin.digest) << pin.graph;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PinnedFamilyPmcs, ::testing::Values(1, 4));

}  // namespace
}  // namespace mintri
