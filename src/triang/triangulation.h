#ifndef MINTRI_TRIANG_TRIANGULATION_H_
#define MINTRI_TRIANG_TRIANGULATION_H_

#include <vector>

#include "cost/bag_cost.h"
#include "graph/graph.h"

namespace mintri {

/// A minimal triangulation H of a graph G together with a clique tree of H.
/// This is the answer type of MinTriang, RankedTriang and the CKK baseline.
///
/// Invariants (checked by the test suite):
///  - `filled` is a minimal triangulation of the original graph;
///  - `bags` are exactly the maximal cliques of `filled` and
///    (bags, parent) is a clique tree (a proper tree decomposition, Thm 2.2);
///  - `separators` are the distinct non-empty clique-tree adhesions, which by
///    Parra–Scheffler (Thm 2.5) equal MinSep(H) — the maximal set of
///    pairwise-parallel minimal separators of G identifying H.
struct Triangulation {
  Graph filled;
  std::vector<VertexSet> bags;
  /// Clique-tree structure: parent[i] is the index of the parent bag, -1 for
  /// the root. parent.size() == bags.size().
  std::vector<int> parent;
  std::vector<VertexSet> separators;
  CostValue cost = 0;

  int Width() const;
  long long FillIn(const Graph& original) const;

  /// A canonical identity for deduplication: the sorted fill-edge set is a
  /// bijective key for minimal triangulations of a fixed graph.
  std::vector<std::pair<int, int>> FillEdgesSorted(const Graph& original)
      const;
};

/// Packages a chordal supergraph `h` of `original` as a Triangulation:
/// computes maximal cliques, a clique tree, and the adhesion separators.
/// `h` must be chordal. Used by CKK and tests.
Triangulation TriangulationFromChordal(const Graph& original, Graph h,
                                       CostValue cost = 0);

}  // namespace mintri

#endif  // MINTRI_TRIANG_TRIANGULATION_H_
