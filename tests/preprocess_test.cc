#include "preprocess/preprocess.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

TEST(PreprocessTest, ChordalGraphFullyReduces) {
  // A tree is chordal: simplicial elimination consumes every vertex and no
  // atom remains.
  Graph g = workloads::RandomTree(12, 3);
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 12);
  EXPECT_TRUE(r.kept.Empty());
  EXPECT_TRUE(r.atoms.empty());
  EXPECT_EQ(r.eliminated.size(), 12u);
  // Re-saturating the recorded bags rebuilds a triangulation of g — for a
  // chordal graph, g itself (no fill).
  Graph filled = g;
  for (const EliminatedVertex& ev : r.eliminated) filled.SaturateSet(ev.bag);
  EXPECT_EQ(filled.NumEdges(), g.NumEdges());
}

TEST(PreprocessTest, EliminationBagsAreCliquesAtEliminationTime) {
  Graph g = testutil::PaperExampleGraph();
  PreprocessResult r = Preprocess(g);
  EXPECT_GE(r.info.vertices_removed, 1);
  // Replaying the eliminations in order: each bag must be a clique once all
  // earlier fills (none for plain simplicial reduction) are applied.
  Graph replay = g;
  for (const EliminatedVertex& ev : r.eliminated) {
    EXPECT_TRUE(replay.IsClique(ev.bag)) << "vertex " << ev.vertex;
    replay.SaturateSet(ev.bag);
  }
}

TEST(PreprocessTest, CycleDoesNotReduceOrSplit) {
  // C4: no simplicial vertex, no clique separator — one atom, the graph.
  Graph g = workloads::Cycle(4);
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 0);
  ASSERT_EQ(r.atoms.size(), 1u);
  EXPECT_EQ(r.atoms[0].Count(), 4);
}

TEST(PreprocessTest, CutVertexSplitsIntoAtoms) {
  // Bowtie: triangles {0,1,2} and {2,3,4} share the cut vertex 2 — a
  // clique minimal separator of size 1.
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
  std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms[0].Count(), 3);
  EXPECT_EQ(atoms[1].Count(), 3);
  EXPECT_TRUE(atoms[0].Intersect(atoms[1]).Count() == 1);
}

TEST(PreprocessTest, CliqueEdgeSeparatorSplits) {
  // Two C4s sharing the saturated pair {0, 1}: {0,1} is a clique minimal
  // separator, so the decomposition yields two 4-vertex atoms overlapping
  // exactly in the shared edge.
  Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {2, 3}, {3, 1},   // left cycle
                          {0, 4}, {4, 5}, {5, 1}});          // right cycle
  std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
  ASSERT_EQ(atoms.size(), 2u);
  for (const VertexSet& a : atoms) EXPECT_EQ(a.Count(), 4);
  VertexSet overlap = atoms[0].Intersect(atoms[1]);
  EXPECT_EQ(overlap.Count(), 2);
  EXPECT_TRUE(g.IsClique(overlap));
}

TEST(PreprocessTest, AtomsAreAtomsOnRandomGraphs) {
  // On a small random corpus: the atoms cover every edge, pairwise overlap
  // in cliques of g, and — the fixed point — have no clique minimal
  // separators of their own.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(11, 0.3, seed);
    std::vector<VertexSet> atoms = CliqueMinimalSeparatorAtoms(g);
    ASSERT_FALSE(atoms.empty()) << "seed=" << seed;
    for (const auto& [u, v] : g.Edges()) {
      bool covered = false;
      for (const VertexSet& a : atoms) {
        if (a.Contains(u) && a.Contains(v)) covered = true;
      }
      EXPECT_TRUE(covered) << "edge " << u << "-" << v << " seed=" << seed;
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t j = i + 1; j < atoms.size(); ++j) {
        EXPECT_TRUE(g.IsClique(atoms[i].Intersect(atoms[j])))
            << "seed=" << seed;
      }
      Graph sub = g.InducedSubgraph(atoms[i]);
      EXPECT_EQ(CliqueMinimalSeparatorAtoms(sub).size(), 1u)
          << "atom " << i << " of seed " << seed << " is not atomic";
    }
  }
}

TEST(PreprocessTest, InfoCountsAtoms) {
  // Two C4s sharing the cut vertex 0: no vertex is simplicial, so the
  // default pipeline keeps all 7 and splits them into two 4-vertex atoms.
  Graph g = MakeGraph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0},    // left cycle
                          {0, 4}, {4, 5}, {5, 6}, {6, 0}});  // right cycle
  PreprocessResult r = Preprocess(g);
  EXPECT_EQ(r.info.vertices_removed, 0);
  EXPECT_EQ(r.info.num_atoms, 2);
  EXPECT_EQ(r.info.largest_atom, 4);
  EXPECT_EQ(r.info.smallest_atom, 4);
  EXPECT_GE(r.info.seconds, 0.0);
}

TEST(PreprocessTest, AtomLinksFormASpanningForestOfTheAtoms) {
  // Every link joins two atoms through a clique that both contain, and per
  // connected component of the reduced graph the links span its atoms
  // without a cycle.
  std::vector<Graph> corpus = {
      MakeGraph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {4, 5}, {5, 6},
                    {6, 0}}),
      MakeGraph(6, {{0, 1}, {0, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}})};
  for (uint64_t seed = 0; seed < 8; ++seed) {
    corpus.push_back(workloads::ErdosRenyi(14, 0.2, seed));
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Graph& g = corpus[i];
    PreprocessResult r = Preprocess(g);
    const int k = static_cast<int>(r.atoms.size());
    std::vector<int> tree_of(k);
    for (int a = 0; a < k; ++a) tree_of[a] = a;
    auto find = [&](int x) {
      while (tree_of[x] != x) x = tree_of[x];
      return x;
    };
    for (const AtomLink& link : r.atom_links) {
      ASSERT_TRUE(link.a >= 0 && link.a < k && link.b >= 0 && link.b < k)
          << "graph " << i;
      EXPECT_FALSE(link.separator.Empty()) << "graph " << i;
      EXPECT_TRUE(g.IsClique(link.separator)) << "graph " << i;
      EXPECT_TRUE(link.separator.IsSubsetOf(r.atoms[link.a])) << "graph " << i;
      EXPECT_TRUE(link.separator.IsSubsetOf(r.atoms[link.b])) << "graph " << i;
      EXPECT_NE(find(link.a), find(link.b)) << "graph " << i << ": a cycle";
      tree_of[find(link.a)] = find(link.b);
    }
    std::vector<VertexSet> kept_components;
    ComponentScanner scanner;
    scanner.Components(g, r.kept.Complement(), &kept_components);
    EXPECT_EQ(r.atom_links.size() + kept_components.size(),
              static_cast<size_t>(k))
        << "graph " << i;
  }
}

}  // namespace
}  // namespace mintri
