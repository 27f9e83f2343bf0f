#include "chordal/clique_tree.h"

#include <algorithm>

#include "chordal/chordality.h"

namespace mintri {

namespace {

/// The maximal cliques of a chordal graph read off a perfect elimination
/// ordering (Blair–Peyton): with madj(v) the neighbors eliminated after v
/// and f(v) the earliest of them, the candidate clique C_v = {v} ∪ madj(v)
/// is non-maximal iff some u with f(u) = v has |madj(u)| = |madj(v)| + 1
/// (then C_v ⊂ C_u; u is v's absorber). The maximal ones come out in the
/// elimination order of their generating vertex v. O(n + m) beyond the
/// bitset scans of the adjacency rows.
struct PerfectElimination {
  explicit PerfectElimination(const Graph& g) {
    const int n = g.NumVertices();
    order = PerfectEliminationOrdering(g);
    position.assign(n, 0);
    for (int i = 0; i < n; ++i) position[order[i]] = i;
    later.assign(n, 0);
    follower.assign(n, -1);
    for (int i = 0; i < n; ++i) {
      const int v = order[i];
      g.Neighbors(v).ForEach([&](int w) {
        if (position[w] <= i) return;
        ++later[v];
        if (follower[v] < 0 || position[w] < position[follower[v]]) {
          follower[v] = w;
        }
      });
    }
    absorber.assign(n, -1);
    for (const int u : order) {
      const int v = follower[u];
      if (v >= 0 && absorber[v] < 0 && later[u] == later[v] + 1) {
        absorber[v] = u;
      }
    }
  }

  /// C_v = {v} ∪ madj(v).
  VertexSet Clique(const Graph& g, int v) const {
    VertexSet c = MadjOf(g, v);
    c.Insert(v);
    return c;
  }

  /// madj(v): the neighbors of v eliminated after it.
  VertexSet MadjOf(const Graph& g, int v) const {
    VertexSet c(g.NumVertices());
    g.Neighbors(v).ForEach([&](int w) {
      if (position[w] > position[v]) c.Insert(w);
    });
    return c;
  }

  std::vector<int> order;     // first-eliminated first
  std::vector<int> position;  // index of each vertex in `order`
  std::vector<int> later;     // |madj(v)|
  std::vector<int> follower;  // f(v), -1 when madj(v) is empty
  std::vector<int> absorber;  // -1 iff C_v is a maximal clique
};

}  // namespace

std::vector<VertexSet> MaximalCliquesOfChordal(const Graph& g) {
  PerfectElimination pe(g);
  std::vector<VertexSet> maximal;
  for (const int v : pe.order) {
    if (pe.absorber[v] < 0) maximal.push_back(pe.Clique(g, v));
  }
  return maximal;
}

CliqueTree BuildCliqueTree(const Graph& g) {
  // Contract every non-maximal C_v into its absorber's clique: the
  // elimination tree (parent f(v)) with bags C_v is a tree decomposition,
  // and contracting a bag into a neighbor that contains it keeps it one.
  // What is left is the clique tree whose nodes are the maximal cliques. A
  // clique K absorbs the chain g, f(g), ..., top of its generator g, so
  // its parent is the clique holding f(top), and its adhesion is madj(top).
  PerfectElimination pe(g);
  const int n = g.NumVertices();
  CliqueTree tree;
  std::vector<int> clique_of(n, -1);
  std::vector<int> top;
  for (const int v : pe.order) {
    if (pe.absorber[v] < 0) {
      clique_of[v] = static_cast<int>(tree.cliques.size());
      tree.cliques.push_back(pe.Clique(g, v));
      top.push_back(v);
    } else {
      clique_of[v] = clique_of[pe.absorber[v]];
      top[clique_of[v]] = v;
    }
  }
  // Components of g give one root each; join every later root to the first
  // by an empty adhesion so the result is a single tree.
  int first_root = -1;
  for (int k = 0; k < static_cast<int>(tree.cliques.size()); ++k) {
    const int up = pe.follower[top[k]];
    if (up >= 0) {
      tree.edges.emplace_back(clique_of[up], k);
    } else if (first_root < 0) {
      first_root = k;
    } else {
      tree.edges.emplace_back(first_root, k);
    }
  }
  return tree;
}

std::vector<VertexSet> MinimalSeparatorsOfChordal(const Graph& g) {
  // The non-empty adhesions of BuildCliqueTree's tree are exactly the sets
  // madj(top) of the non-root cliques' top vertices, i.e. madj(v) of every
  // v whose absorber chain ends at v (absorber[f(v)] != v).
  PerfectElimination pe(g);
  std::vector<VertexSet> seps;
  for (const int v : pe.order) {
    const int up = pe.follower[v];
    if (up < 0 || pe.absorber[up] == v) continue;
    seps.push_back(pe.MadjOf(g, v));
  }
  std::sort(seps.begin(), seps.end());
  seps.erase(std::unique(seps.begin(), seps.end()), seps.end());
  return seps;
}

}  // namespace mintri
