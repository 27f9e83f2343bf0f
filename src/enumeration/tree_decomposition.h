#ifndef MINTRI_ENUMERATION_TREE_DECOMPOSITION_H_
#define MINTRI_ENUMERATION_TREE_DECOMPOSITION_H_

#include <ostream>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "triang/triangulation.h"

namespace mintri {

/// A tree decomposition T = (T, β) of a graph (Section 2 of the paper):
/// nodes carry bags; `edges` is the tree structure.
struct TreeDecomposition {
  std::vector<VertexSet> bags;
  std::vector<std::pair<int, int>> edges;

  int Width() const;

  /// The three defining properties: vertices covered, edges covered, and the
  /// junction-tree property — plus `edges` actually forming a tree (or
  /// forest covering all bag nodes when the graph is disconnected).
  bool IsValidFor(const Graph& g) const;

  /// Proper = a clique tree of a minimal triangulation (Theorem 2.2(3)):
  /// checks that the bags are exactly the maximal cliques (no duplicates) of
  /// the graph obtained by saturating all bags, and that that graph is a
  /// minimal triangulation of g.
  bool IsProperFor(const Graph& g) const;
};

/// The clique tree carried by a Triangulation, as a TreeDecomposition.
/// Takes `t` by value: a caller done with it moves it in, and the bags are
/// moved rather than copied.
TreeDecomposition CliqueTreeOf(Triangulation t);

/// Bag i of a tree decomposition in compact form: the members
/// [begin, end) of one flat vertex array, sorted ascending.
struct BagRange {
  int begin = 0;
  int end = 0;
  int size() const { return end - begin; }
};

/// Writes a tree decomposition in the PACE ".td" exchange format:
///   s td <#bags> <max-bag-size> <n>
///   b <bag-id> <v...>        (1-based ids)
///   <i> <j>                  (tree edges, 1-based bag ids)
/// Bag i is members[bags[i].begin, bags[i].end); edges are 0-based bag
/// pairs, written in order. A forest is written as one tree: each further
/// tree is joined to bag 1. The block is formatted into one buffer and
/// written with a single out.write.
void WritePaceTd(const std::vector<int>& members,
                 const std::vector<BagRange>& bags,
                 const std::vector<std::pair<int, int>>& edges,
                 int num_graph_vertices, std::ostream& out);

/// The same writer over a TreeDecomposition's dense bags.
void WritePaceTd(const TreeDecomposition& td, int num_graph_vertices,
                 std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_TREE_DECOMPOSITION_H_
