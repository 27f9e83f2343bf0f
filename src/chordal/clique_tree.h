#ifndef MINTRI_CHORDAL_CLIQUE_TREE_H_
#define MINTRI_CHORDAL_CLIQUE_TREE_H_

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace mintri {

/// A clique tree of a chordal graph: the nodes are exactly the maximal
/// cliques, and every edge (i, j) carries the adhesion cliques[i] ∩
/// cliques[j]. For a connected chordal graph this is a tree; for a
/// disconnected one, components are joined by edges with empty adhesions so
/// the result is still a single tree (a valid tree decomposition).
struct CliqueTree {
  std::vector<VertexSet> cliques;
  std::vector<std::pair<int, int>> edges;
};

/// Maximal cliques of a chordal graph, read off the MCS perfect elimination
/// ordering in O(n + m) (Fulkerson–Gross / Blair–Peyton), ordered by the
/// elimination position of each clique's first-eliminated vertex.
/// Precondition: IsChordal(g). A chordal graph on n vertices has at most n
/// maximal cliques (Theorem 2.2(2) of the paper).
std::vector<VertexSet> MaximalCliquesOfChordal(const Graph& g);

/// Builds a clique tree in O(n + m) from the same elimination ordering:
/// the elimination tree with every non-maximal clique contracted into a
/// clique that contains it (Blair & Peyton, "An introduction to chordal
/// graphs and clique trees", 1993). `cliques` is MaximalCliquesOfChordal(g).
/// Precondition: IsChordal(g).
CliqueTree BuildCliqueTree(const Graph& g);

/// The minimal separators of a chordal graph: exactly the distinct non-empty
/// adhesions of any clique tree. Precondition: IsChordal(g).
std::vector<VertexSet> MinimalSeparatorsOfChordal(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_CHORDAL_CLIQUE_TREE_H_
