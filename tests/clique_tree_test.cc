#include "chordal/clique_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "chordal/chordality.h"
#include "chordal/lb_triang.h"
#include "clique_tree_oracle.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

TEST(CliqueTreeTest, PathCliquesAreEdges) {
  Graph g = workloads::Path(4);
  auto cliques = MaximalCliquesOfChordal(g);
  EXPECT_EQ(cliques.size(), 3u);
  for (const VertexSet& c : cliques) EXPECT_EQ(c.Count(), 2);
}

TEST(CliqueTreeTest, CompleteGraphHasOneClique) {
  Graph g = workloads::Complete(5);
  auto cliques = MaximalCliquesOfChordal(g);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].Count(), 5);
  CliqueTree tree = BuildCliqueTree(g);
  EXPECT_TRUE(tree.edges.empty());
}

TEST(CliqueTreeTest, ChordalBoundOnCliqueCount) {
  // Theorem 2.2(2): a chordal graph has < n maximal cliques... (<= n; < n
  // for n >= 2 connected). Validate on random chordal graphs produced by
  // LB-Triang.
  for (int seed = 0; seed < 10; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(10, 0.3, seed);
    Graph h = LbTriangMinDegree(g);
    ASSERT_TRUE(IsChordal(h));
    auto cliques = MaximalCliquesOfChordal(h);
    EXPECT_LT(cliques.size(), 10u);
    // Each clique is indeed a clique, and maximal.
    for (size_t i = 0; i < cliques.size(); ++i) {
      EXPECT_TRUE(h.IsClique(cliques[i]));
      for (size_t j = 0; j < cliques.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(cliques[i].IsSubsetOf(cliques[j]));
        }
      }
    }
  }
}

TEST(CliqueTreeTest, TreeHasJunctionProperty) {
  for (int seed = 0; seed < 10; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(12, 0.25, 100 + seed);
    Graph h = LbTriangMinDegree(g);
    CliqueTree tree = BuildCliqueTree(h);
    const int k = static_cast<int>(tree.cliques.size());
    ASSERT_EQ(tree.edges.size(), static_cast<size_t>(k - 1));
    // Junction property per vertex, via the "running intersection" check on
    // a rooted orientation.
    std::vector<std::vector<int>> adj(k);
    for (auto& [a, b] : tree.edges) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    for (int v = 0; v < h.NumVertices(); ++v) {
      // Collect holder nodes and check connectivity by BFS.
      std::vector<int> holders;
      for (int i = 0; i < k; ++i) {
        if (tree.cliques[i].Contains(v)) holders.push_back(i);
      }
      ASSERT_FALSE(holders.empty());
      std::vector<bool> inset(k, false), seen(k, false);
      for (int i : holders) inset[i] = true;
      std::vector<int> stack = {holders[0]};
      seen[holders[0]] = true;
      int reached = 0;
      while (!stack.empty()) {
        int x = stack.back();
        stack.pop_back();
        ++reached;
        for (int y : adj[x]) {
          if (inset[y] && !seen[y]) {
            seen[y] = true;
            stack.push_back(y);
          }
        }
      }
      EXPECT_EQ(reached, static_cast<int>(holders.size())) << "vertex " << v;
    }
  }
}

TEST(CliqueTreeTest, MinimalSeparatorsOfChordalPath) {
  Graph g = workloads::Path(4);  // separators {1}, {2}
  auto seps = MinimalSeparatorsOfChordal(g);
  ASSERT_EQ(seps.size(), 2u);
  EXPECT_EQ(seps[0], VertexSet::Of(4, {1}));
  EXPECT_EQ(seps[1], VertexSet::Of(4, {2}));
}

TEST(CliqueTreeTest, MinimalSeparatorsOfChordalMatchBruteForce) {
  for (int seed = 0; seed < 15; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.3, 200 + seed);
    Graph h = LbTriangMinDegree(g);
    auto via_tree = MinimalSeparatorsOfChordal(h);
    auto brute = MinimalSeparatorsBruteForce(h);
    std::sort(via_tree.begin(), via_tree.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(via_tree, brute) << "seed " << seed;
  }
}

TEST(CliqueTreeTest, DisconnectedChordalStillYieldsSingleTree) {
  Graph g = MakeGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  CliqueTree tree = BuildCliqueTree(g);
  EXPECT_EQ(tree.cliques.size(), 3u);
  EXPECT_EQ(tree.edges.size(), 2u);  // spanning tree with empty adhesions
}

// Chordal graphs of every shape the pipeline feeds the clique-tree code:
// LB-Triang triangulations of connected and disconnected random graphs,
// random trees, edgeless graphs and a complete graph.
std::vector<Graph> ChordalCorpus() {
  std::vector<Graph> corpus;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    corpus.push_back(
        LbTriangMinDegree(workloads::ConnectedErdosRenyi(14, 0.2, seed)));
    corpus.push_back(LbTriangMinDegree(workloads::ErdosRenyi(16, 0.1, seed)));
    corpus.push_back(
        LbTriangMinDegree(workloads::ConnectedErdosRenyi(40, 0.08, seed)));
    corpus.push_back(workloads::RandomTree(30, seed));
  }
  corpus.push_back(Graph(0));
  corpus.push_back(Graph(1));
  corpus.push_back(Graph(7));
  corpus.push_back(workloads::Complete(6));
  return corpus;
}

// The linear clique tree against the quadratic oracle: the same MCS order,
// the same maximal cliques in the same order, a valid single tree, and the
// adhesion multiset every clique tree of the graph shares.
TEST(CliqueTreeTest, LinearCliqueTreeMatchesQuadraticOracle) {
  const std::vector<Graph> corpus = ChordalCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Graph& h = corpus[i];
    ASSERT_TRUE(IsChordal(h)) << "graph " << i;
    EXPECT_EQ(MaximumCardinalitySearch(h), testutil::McsByScan(h))
        << "graph " << i;
    const std::vector<VertexSet> cliques = MaximalCliquesOfChordal(h);
    EXPECT_EQ(cliques, testutil::MaximalCliquesBySubsetFilter(h))
        << "graph " << i;

    CliqueTree tree = BuildCliqueTree(h);
    const CliqueTree oracle = testutil::CliqueTreeByPrim(h);
    EXPECT_EQ(tree.cliques, cliques) << "graph " << i;
    EXPECT_EQ(tree.edges.size(), cliques.empty() ? 0 : cliques.size() - 1)
        << "graph " << i;
    EXPECT_EQ(testutil::AdhesionMultiset(tree),
              testutil::AdhesionMultiset(oracle))
        << "graph " << i;
    TreeDecomposition td{tree.cliques, tree.edges};
    EXPECT_TRUE(td.IsValidFor(h)) << "graph " << i;

    std::vector<VertexSet> distinct;
    for (const VertexSet& a : testutil::AdhesionMultiset(oracle)) {
      if (!a.Empty() && (distinct.empty() || distinct.back() != a)) {
        distinct.push_back(a);
      }
    }
    EXPECT_EQ(MinimalSeparatorsOfChordal(h), distinct) << "graph " << i;
  }
}

}  // namespace
}  // namespace mintri
