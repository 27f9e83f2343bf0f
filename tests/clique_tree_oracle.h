#ifndef MINTRI_TESTS_CLIQUE_TREE_ORACLE_H_
#define MINTRI_TESTS_CLIQUE_TREE_ORACLE_H_

#include <algorithm>
#include <vector>

#include "chordal/clique_tree.h"
#include "graph/graph.h"

namespace mintri {
namespace testutil {

/// Maximum Cardinality Search by a full scan per step: the unvisited vertex
/// of largest weight, the lowest-numbered one on ties. O(n^2); the
/// reference order for the heap-based MaximumCardinalitySearch.
inline std::vector<int> McsByScan(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<int> weight(n, 0);
  std::vector<bool> visited(n, false);
  std::vector<int> order;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!visited[v] && (best == -1 || weight[v] > weight[best])) best = v;
    }
    visited[best] = true;
    order.push_back(best);
    g.Neighbors(best).ForEach([&](int u) {
      if (!visited[u]) ++weight[u];
    });
  }
  return order;
}

/// Maximal cliques by filtering the candidates C_v = {v} ∪ later neighbors
/// of a perfect elimination ordering with an O(k^2) inclusion test; the
/// survivors keep the elimination order of their generating vertex.
inline std::vector<VertexSet> MaximalCliquesBySubsetFilter(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<int> elim = McsByScan(g);
  std::reverse(elim.begin(), elim.end());
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[elim[i]] = i;
  std::vector<VertexSet> candidates;
  for (int i = 0; i < n; ++i) {
    VertexSet c = VertexSet::Single(n, elim[i]);
    g.Neighbors(elim[i]).ForEach([&](int w) {
      if (position[w] > i) c.Insert(w);
    });
    candidates.push_back(std::move(c));
  }
  std::vector<VertexSet> maximal;
  for (size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < candidates.size() && !dominated; ++j) {
      dominated = i != j && candidates[i].IsSubsetOf(candidates[j]);
    }
    if (!dominated) maximal.push_back(candidates[i]);
  }
  return maximal;
}

/// A clique tree as a maximum-weight spanning tree of the clique graph,
/// weight |Ci ∩ Cj|, by an O(k^2) Prim (Jordan). Zero-weight edges join the
/// components of a disconnected graph into one tree.
inline CliqueTree CliqueTreeByPrim(const Graph& g) {
  CliqueTree tree;
  tree.cliques = MaximalCliquesBySubsetFilter(g);
  const int k = static_cast<int>(tree.cliques.size());
  if (k <= 1) return tree;
  std::vector<bool> in_tree(k, false);
  std::vector<int> best_weight(k, -1);
  std::vector<int> best_parent(k, -1);
  in_tree[0] = true;
  for (int j = 1; j < k; ++j) {
    best_weight[j] = tree.cliques[0].Intersect(tree.cliques[j]).Count();
    best_parent[j] = 0;
  }
  for (int step = 1; step < k; ++step) {
    int pick = -1;
    for (int j = 0; j < k; ++j) {
      if (!in_tree[j] && (pick == -1 || best_weight[j] > best_weight[pick])) {
        pick = j;
      }
    }
    in_tree[pick] = true;
    tree.edges.emplace_back(best_parent[pick], pick);
    for (int j = 0; j < k; ++j) {
      if (in_tree[j]) continue;
      int w = tree.cliques[pick].Intersect(tree.cliques[j]).Count();
      if (w > best_weight[j]) {
        best_weight[j] = w;
        best_parent[j] = pick;
      }
    }
  }
  return tree;
}

/// The adhesions of every tree edge, sorted (a multiset; empty ones
/// included). Every clique tree of a chordal graph has the same one.
inline std::vector<VertexSet> AdhesionMultiset(const CliqueTree& tree) {
  std::vector<VertexSet> adhesions;
  for (const auto& [a, b] : tree.edges) {
    adhesions.push_back(tree.cliques[a].Intersect(tree.cliques[b]));
  }
  std::sort(adhesions.begin(), adhesions.end());
  return adhesions;
}

}  // namespace testutil
}  // namespace mintri

#endif  // MINTRI_TESTS_CLIQUE_TREE_ORACLE_H_
