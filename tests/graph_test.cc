#include "graph/graph.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

TEST(GraphTest, AddEdgeIgnoresLoopsAndDuplicates) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(2, 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, NeighborhoodOfSet) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  VertexSet s = VertexSet::Of(5, {1, 2});
  EXPECT_EQ(g.NeighborhoodOfSet(s), VertexSet::Of(5, {0, 3}));
  EXPECT_EQ(g.ClosedNeighborhood(2), VertexSet::Of(5, {1, 2, 3}));
}

TEST(GraphTest, SaturateSetMakesClique) {
  Graph g(4);
  VertexSet s = VertexSet::Of(4, {0, 1, 3});
  EXPECT_FALSE(g.IsClique(s));
  g.SaturateSet(s);
  EXPECT_TRUE(g.IsClique(s));
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, IsCliqueOnEmptyAndSingleton) {
  Graph g(3);
  EXPECT_TRUE(g.IsClique(VertexSet(3)));
  EXPECT_TRUE(g.IsClique(VertexSet::Single(3, 1)));
}

TEST(GraphTest, EdgesSorted) {
  Graph g = MakeGraph(4, {{2, 3}, {0, 1}, {1, 3}});
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0, 1));
  EXPECT_EQ(edges[1], std::make_pair(1, 3));
  EXPECT_EQ(edges[2], std::make_pair(2, 3));
}

TEST(GraphTest, InducedSubgraphRelabels) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}});
  std::vector<int> map;
  Graph sub = g.InducedSubgraph(VertexSet::Of(5, {1, 3, 4}), &map);
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[3], 1);
  EXPECT_EQ(map[4], 2);
  EXPECT_EQ(map[0], -1);
  EXPECT_TRUE(sub.HasEdge(0, 1));   // 1-3
  EXPECT_TRUE(sub.HasEdge(1, 2));   // 3-4
  EXPECT_FALSE(sub.HasEdge(0, 2));  // 1-4 not an edge
  EXPECT_EQ(sub.NumEdges(), 2);
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], VertexSet::Of(6, {0, 1, 2}));
  EXPECT_EQ(comps[1], VertexSet::Of(6, {3, 4}));
  EXPECT_EQ(comps[2], VertexSet::Of(6, {5}));
  EXPECT_FALSE(g.IsConnected());
  EXPECT_TRUE(MakeGraph(3, {{0, 1}, {1, 2}}).IsConnected());
}

TEST(GraphTest, ComponentSubgraphsMatchInducedComponents) {
  // One BFS pass must give what ConnectedComponents + InducedSubgraph give,
  // in the same order, including isolated vertices.
  std::vector<Graph> graphs = {Graph(0), Graph(4),
                               MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}})};
  for (int seed = 0; seed < 8; ++seed) {
    graphs.push_back(workloads::ErdosRenyi(40 + 30 * seed, 0.02, 900 + seed));
  }
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    std::vector<std::vector<int>> labels;
    std::vector<Graph> subs = g.ComponentSubgraphs(&labels);
    std::vector<VertexSet> comps = g.ConnectedComponents();
    ASSERT_EQ(subs.size(), comps.size()) << "graph " << gi;
    ASSERT_EQ(labels.size(), comps.size()) << "graph " << gi;
    for (size_t c = 0; c < comps.size(); ++c) {
      EXPECT_EQ(labels[c], comps[c].ToVector()) << "graph " << gi;
      EXPECT_EQ(subs[c], g.InducedSubgraph(comps[c])) << "graph " << gi;
    }
  }
}

TEST(GraphTest, ComponentsAfterRemoving) {
  // Path 0-1-2-3-4; removing {2} leaves {0,1} and {3,4}.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto comps = g.ComponentsAfterRemoving(VertexSet::Of(5, {2}));
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], VertexSet::Of(5, {0, 1}));
  EXPECT_EQ(comps[1], VertexSet::Of(5, {3, 4}));
  EXPECT_EQ(g.ComponentOf(4, VertexSet::Of(5, {2})),
            VertexSet::Of(5, {3, 4}));
}

TEST(GraphTest, ScannerComponentAndNeighborhood) {
  // Path 0-1-2-3-4 plus chord 0-3; removing {1, 3} leaves {0}, {2}, {4}.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 3}});
  const VertexSet removed = VertexSet::Of(5, {1, 3});
  ComponentScanner scanner;
  EXPECT_EQ(scanner.ComponentOf(g, removed, 2), VertexSet::Of(5, {2}));
  EXPECT_EQ(scanner.ComponentNeighborhood(g, removed, 0),
            VertexSet::Of(5, {1, 3}));
  EXPECT_EQ(scanner.ComponentNeighborhood(g, removed, 4),
            VertexSet::Of(5, {3}));
  // Removing {2} leaves one component, whose neighborhood is {2}.
  EXPECT_EQ(scanner.ComponentNeighborhood(g, VertexSet::Of(5, {2}), 4),
            VertexSet::Of(5, {2}));
}

TEST(GraphTest, UnionOf) {
  Graph a = MakeGraph(4, {{0, 1}});
  Graph b = MakeGraph(4, {{0, 1}, {2, 3}});
  Graph u = Graph::UnionOf(a, b);
  EXPECT_EQ(u.NumEdges(), 2);
  EXPECT_TRUE(u.HasEdge(0, 1));
  EXPECT_TRUE(u.HasEdge(2, 3));
}

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(g.ConnectedComponents().empty());
}

}  // namespace
}  // namespace mintri
