#include "workloads/families.h"

#include <gtest/gtest.h>

#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

namespace mintri {
namespace {

using namespace mintri::workloads;  // NOLINT: test-local convenience

TEST(RandomGraphsTest, ErdosRenyiIsDeterministic) {
  Graph a = ErdosRenyi(20, 0.3, 42);
  Graph b = ErdosRenyi(20, 0.3, 42);
  Graph c = ErdosRenyi(20, 0.3, 43);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(RandomGraphsTest, ErdosRenyiDensityMatchesP) {
  Graph g = ErdosRenyi(100, 0.25, 7);
  double max_edges = 100.0 * 99.0 / 2.0;
  double density = g.NumEdges() / max_edges;
  EXPECT_NEAR(density, 0.25, 0.05);
}

TEST(RandomGraphsTest, ConnectedErdosRenyiIsConnected) {
  for (int seed = 0; seed < 20; ++seed) {
    EXPECT_TRUE(ConnectedErdosRenyi(15, 0.05, seed).IsConnected());
  }
}

TEST(RandomGraphsTest, RandomTreeIsATree) {
  for (int seed = 0; seed < 10; ++seed) {
    for (int n : {1, 2, 3, 7, 20}) {
      Graph t = RandomTree(n, seed);
      EXPECT_EQ(t.NumEdges(), std::max(0, n - 1));
      EXPECT_TRUE(t.IsConnected());
    }
  }
}

TEST(NamedGraphsTest, BasicInvariants) {
  EXPECT_EQ(Path(5).NumEdges(), 4);
  EXPECT_EQ(Cycle(5).NumEdges(), 5);
  EXPECT_EQ(Complete(6).NumEdges(), 15);
  EXPECT_EQ(CompleteBipartite(2, 3).NumEdges(), 6);
  EXPECT_EQ(Grid(3, 4).NumVertices(), 12);
  EXPECT_EQ(Grid(3, 4).NumEdges(), 17);
  EXPECT_EQ(Grid(2, 2, true).NumEdges(), 5);
  EXPECT_EQ(Petersen().NumVertices(), 10);
  EXPECT_EQ(Petersen().NumEdges(), 15);
  EXPECT_EQ(Hypercube(4).NumVertices(), 16);
  EXPECT_EQ(Hypercube(4).NumEdges(), 32);
}

TEST(NamedGraphsTest, MycielskiSizes) {
  // |V(M(G))| = 2|V|+1 starting from K2: 2, 5, 11, 23, 47.
  EXPECT_EQ(Mycielski(2).NumVertices(), 2);
  EXPECT_EQ(Mycielski(3).NumVertices(), 5);
  EXPECT_EQ(Mycielski(4).NumVertices(), 11);  // Grötzsch graph
  EXPECT_EQ(Mycielski(5).NumVertices(), 23);
  EXPECT_EQ(Mycielski(4).NumEdges(), 20);
  // Mycielski graphs are triangle-free and connected.
  EXPECT_TRUE(Mycielski(5).IsConnected());
}

TEST(NamedGraphsTest, MycielskiThreeIsC5) {
  Graph m3 = Mycielski(3);
  EXPECT_EQ(m3.NumVertices(), 5);
  EXPECT_EQ(m3.NumEdges(), 5);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(m3.Neighbors(v).Count(), 2);
}

TEST(NamedGraphsTest, QueenGraph) {
  Graph q4 = Queen(4);
  EXPECT_EQ(q4.NumVertices(), 16);
  // Every queen attacks at least 2*(n-1) squares... degree check: corner of
  // queen4 sees 3 + 3 + 3 = 9 squares.
  EXPECT_EQ(q4.Neighbors(0).Count(), 9);
  EXPECT_TRUE(q4.IsConnected());
}

TEST(GraphicalModelsTest, GeneratorsAreDeterministicAndConnectedish) {
  EXPECT_EQ(MoralizedRandomDag(20, 3, 1), MoralizedRandomDag(20, 3, 1));
  EXPECT_TRUE(MoralizedRandomDag(20, 3, 1).IsConnected());
  EXPECT_TRUE(DbnChain(4, 5, 0.3, 0.3, 2).IsConnected());
  EXPECT_TRUE(SegmentationGraph(4, 5, 6, 3).IsConnected());
  EXPECT_TRUE(ObjectDetectionGraph(8, 0.4, 4, 4).IsConnected());
  EXPECT_TRUE(CspGraph(12, 8, 3, 5).IsConnected());
  EXPECT_TRUE(ImageAlignmentGraph(4, 5, 5, 6).IsConnected());
}

TEST(GraphicalModelsTest, PromedasIsBipartiteBeforeMoralization) {
  // After moralization the disease layer gains marriages; findings stay an
  // independent set (findings have no children).
  Graph g = PromedasGraph(10, 20, 3, 7);
  EXPECT_EQ(g.NumVertices(), 30);
  for (int f1 = 10; f1 < 30; ++f1) {
    for (int f2 = f1 + 1; f2 < 30; ++f2) {
      EXPECT_FALSE(g.HasEdge(f1, f2));
    }
  }
}

TEST(GraphicalModelsTest, DbnHasInterSliceEdgesOnlyBetweenAdjacent) {
  Graph g = DbnChain(5, 4, 0.5, 0.5, 11);
  // No edge may skip a slice.
  for (const auto& [u, v] : g.Edges()) {
    EXPECT_LE(std::abs(u / 4 - v / 4), 1);
  }
}

TEST(TpchQueriesTest, AllQueriesWellFormed) {
  auto queries = AllTpchQueries();
  ASSERT_EQ(queries.size(), 22u);
  for (const TpchQuery& q : queries) {
    EXPECT_EQ(q.graph.NumVertices(),
              static_cast<int>(q.relations.size()))
        << "Q" << q.number;
    EXPECT_GE(q.graph.NumVertices(), 1) << "Q" << q.number;
  }
}

TEST(TpchQueriesTest, Q5HasTheFamousCycle) {
  // Q5 joins customer-orders-lineitem-supplier-nation-customer: cyclic.
  TpchQuery q5 = TpchQueryGraph(5);
  EXPECT_EQ(q5.graph.NumEdges(), 6);
  EXPECT_EQ(q5.graph.NumVertices(), 6);
  // A 6-vertex graph with 6 edges and all vertices connected has a cycle.
  EXPECT_TRUE(q5.graph.IsConnected());
}

TEST(TpchQueriesTest, Q3IsAPath) {
  TpchQuery q3 = TpchQueryGraph(3);
  EXPECT_EQ(q3.graph.NumVertices(), 3);
  EXPECT_EQ(q3.graph.NumEdges(), 2);
}

TEST(FamiliesTest, AllFamiliesNonEmptyAndDeterministic) {
  auto families = AllFamilies();
  EXPECT_EQ(families.size(), 15u);
  for (const auto& f : families) {
    EXPECT_FALSE(f.graphs.empty()) << f.name;
    for (const auto& dg : f.graphs) {
      EXPECT_GT(dg.graph.NumVertices(), 0) << dg.name;
    }
  }
  // Determinism.
  auto again = AllFamilies();
  for (size_t i = 0; i < families.size(); ++i) {
    ASSERT_EQ(families[i].graphs.size(), again[i].graphs.size());
    for (size_t j = 0; j < families[i].graphs.size(); ++j) {
      EXPECT_EQ(families[i].graphs[j].graph, again[i].graphs[j].graph);
    }
  }
}

TEST(FamiliesTest, FamilyByNameFindsCsp) {
  auto f = FamilyByName("CSP");
  EXPECT_EQ(f.name, "CSP");
  EXPECT_GE(f.graphs.size(), 3u);
  EXPECT_EQ(f.graphs[2].name, "myciel5g");
  EXPECT_EQ(f.graphs[2].graph.NumVertices(), 23);
}

}  // namespace
}  // namespace mintri
