#ifndef MINTRI_GRAPH_GRAPH_H_
#define MINTRI_GRAPH_GRAPH_H_

#include <utility>
#include <vector>

#include "graph/vertex_set.h"

namespace mintri {

/// An undirected simple graph over vertices {0, ..., n-1}, with adjacency
/// stored as one VertexSet per vertex. All algorithms in the library
/// (separator enumeration, PMC enumeration, triangulation) run on this type.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int n);

  int NumVertices() const { return n_; }
  int NumEdges() const { return num_edges_; }

  /// Adds the edge {u, v}; ignores self-loops and duplicates.
  void AddEdge(int u, int v);
  bool HasEdge(int u, int v) const {
    return u != v && adjacency_[u].Contains(v);
  }

  const VertexSet& Neighbors(int v) const { return adjacency_[v]; }

  /// N[v] = N(v) ∪ {v}.
  VertexSet ClosedNeighborhood(int v) const;

  /// N(S): vertices outside S adjacent to a member of S.
  VertexSet NeighborhoodOfSet(const VertexSet& s) const;

  /// N(S) written into *out (reusing its storage); for hot paths.
  void NeighborhoodOfSetInto(const VertexSet& s, VertexSet* out) const;

  /// All vertices {0, ..., n-1}.
  VertexSet Vertices() const { return VertexSet::All(n_); }

  /// Makes U a clique (the "saturation" operation of the paper).
  void SaturateSet(const VertexSet& u);

  /// True if every pair of distinct vertices of U is adjacent.
  bool IsClique(const VertexSet& u) const;

  /// All edges as (u, v) pairs with u < v, sorted.
  std::vector<std::pair<int, int>> Edges() const;

  /// The subgraph induced by `keep`, with vertices relabeled to
  /// 0..|keep|-1 in increasing original order. If `old_to_new` is non-null it
  /// receives the relabeling (-1 for dropped vertices).
  Graph InducedSubgraph(const VertexSet& keep,
                        std::vector<int>* old_to_new = nullptr) const;

  /// Connected components of the whole graph.
  std::vector<VertexSet> ConnectedComponents() const;

  /// The subgraph induced by each connected component, in
  /// ConnectedComponents() order and relabeled like InducedSubgraph;
  /// (*old_of_new)[c][i] is the original label of vertex i of component c.
  /// One BFS over the adjacency rows, so a graph with many small components
  /// costs one n-bit row per vertex in total, not n-bit work per component.
  std::vector<Graph> ComponentSubgraphs(
      std::vector<std::vector<int>>* old_of_new) const;

  /// Connected components of G \ removed (i.e., of the subgraph induced by
  /// the complement of `removed`), as vertex sets of the original graph.
  /// Hot paths should prefer a reused ComponentScanner (below), which also
  /// delivers each component's neighborhood without extra allocation.
  std::vector<VertexSet> ComponentsAfterRemoving(const VertexSet& removed)
      const;

  /// The connected component of G \ removed that contains `v`
  /// (v must not be in `removed`).
  VertexSet ComponentOf(int v, const VertexSet& removed) const;

  bool IsConnected() const;

  /// Union of this graph's edges with `other`'s (same vertex count).
  static Graph UnionOf(const Graph& a, const Graph& b);

  bool operator==(const Graph& other) const {
    return n_ == other.n_ && adjacency_ == other.adjacency_;
  }

 private:
  int n_ = 0;
  int num_edges_ = 0;
  std::vector<VertexSet> adjacency_;
};

/// Scratch-reusing component scanner: a single BFS pass per component that
/// yields both the component C and its neighborhood N(C) (the pair every
/// caller in the separator/PMC machinery needs), without allocating fresh
/// frontier/visited temporaries per call. Keep one scanner alive across
/// calls — its buffers are recycled — and use one scanner per thread.
class ComponentScanner {
 public:
  ComponentScanner() = default;

  /// Calls fn(component, neighborhood) for every connected component C of
  /// g \ removed, where neighborhood = N(C) ⊆ removed. Both sets are scratch
  /// buffers owned by the scanner: they are only valid for the duration of
  /// the callback and must be copied to be retained.
  template <typename Fn>
  void ForEachComponent(const Graph& g, const VertexSet& removed, Fn&& fn) {
    ForEachComponentWhile(g, removed,
                          [&](const VertexSet& c, const VertexSet& nb) {
                            fn(c, nb);
                            return true;
                          });
  }

  /// As ForEachComponent, but stops early when fn returns false. Returns
  /// false iff the scan was cut short.
  template <typename Fn>
  bool ForEachComponentWhile(const Graph& g, const VertexSet& removed,
                             Fn&& fn) {
    remaining_.AssignComplementOf(removed);
    while (true) {
      int start = remaining_.First();
      if (start < 0) return true;
      ScanFrom(g, removed, start);
      remaining_.MinusWith(component_);
      if (!fn(static_cast<const VertexSet&>(component_),
              static_cast<const VertexSet&>(neighborhood_))) {
        return false;
      }
    }
  }

  /// Overwrites *components with the components of g \ removed, reusing the
  /// vector's elements (and their buffers) from previous calls.
  void Components(const Graph& g, const VertexSet& removed,
                  std::vector<VertexSet>* components);

  /// The component of g \ removed containing v, as a reference into scanner
  /// scratch (valid until the next scanner call).
  const VertexSet& ComponentOf(const Graph& g, const VertexSet& removed,
                               int v);

  /// N(C) for the component C of g \ removed containing v, as a reference
  /// into scanner scratch (valid until the next scanner call).
  const VertexSet& ComponentNeighborhood(const Graph& g,
                                         const VertexSet& removed, int v);

 private:
  // BFS from `start`, filling component_ with its component of g \ removed
  // and neighborhood_ with that component's neighborhood.
  void ScanFrom(const Graph& g, const VertexSet& removed, int start);

  VertexSet remaining_;
  VertexSet component_;
  VertexSet neighborhood_;
  VertexSet frontier_;
  VertexSet reach_;
};

}  // namespace mintri

#endif  // MINTRI_GRAPH_GRAPH_H_
