#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mintri {
namespace {

TEST(GraphIoTest, ParsesDimacs) {
  auto g = ParseDimacsString(
      "c a comment\n"
      "p tw 4 3\n"
      "1 2\n"
      "2 3\n"
      "3 4\n");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->NumVertices(), 4);
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(2, 3));
}

TEST(GraphIoTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDimacsString("1 2\n").has_value());       // no header
  EXPECT_FALSE(ParseDimacsString("p tw 2 1\n1 5\n").has_value());  // range
  EXPECT_FALSE(ParseDimacsString("p tw x y\n").has_value());
  // Only the `p tw` format is a graph, not another token or a hypergraph.
  EXPECT_FALSE(ParseDimacsString("p foo 3 1\n1 2\n").has_value());
  EXPECT_FALSE(ParseDimacsString("p hg 3 1\n1 2\n").has_value());
  EXPECT_FALSE(  // a second header must not drop the edges read so far
      ParseDimacsString("p tw 3 1\n1 2\np tw 5 0\n").has_value());
  EXPECT_FALSE(ParseDimacsString("p tw 3 1\n1 2 3\n").has_value());  // 3 ids
  EXPECT_FALSE(ParseDimacsString("p tw 3 1\n1 1\n").has_value());  // loop
  EXPECT_FALSE(  // header edge count disagrees with the edge lines
      ParseDimacsString("p tw 3 5\n1 2\n").has_value());
  EXPECT_FALSE(ParseDimacsString("p tw 3 0\n1 2\n").has_value());
  // A repeated edge line counts toward the header's total.
  EXPECT_TRUE(ParseDimacsString("p tw 3 2\n1 2\n2 1\n").has_value());
}

TEST(GraphIoTest, RoundTrips) {
  Graph g(5);
  g.AddEdge(0, 4);
  g.AddEdge(1, 2);
  std::ostringstream out;
  WriteDimacs(g, out);
  auto parsed = ParseDimacsString(out.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, g);
}

}  // namespace
}  // namespace mintri
