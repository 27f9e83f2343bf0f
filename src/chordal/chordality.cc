#include "chordal/chordality.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

namespace mintri {

std::vector<int> MaximumCardinalitySearch(const Graph& g) {
  // Lazy max-heap of (weight, -vertex): the top live entry is the unvisited
  // vertex of largest weight, the lowest-numbered one on ties. An entry is
  // stale once its vertex is visited or has been re-pushed with a larger
  // weight. O((n + m) log n) plus the bitset scans of the adjacency rows.
  const int n = g.NumVertices();
  std::vector<int> weight(n, 0);
  std::vector<bool> visited(n, false);
  std::priority_queue<std::pair<int, int>> heap;
  for (int v = 0; v < n; ++v) heap.emplace(0, -v);
  std::vector<int> order;
  order.reserve(n);
  while (!heap.empty()) {
    const auto [w, neg_v] = heap.top();
    heap.pop();
    const int best = -neg_v;
    if (visited[best] || weight[best] != w) continue;
    visited[best] = true;
    order.push_back(best);
    g.Neighbors(best).ForEach([&](int u) {
      if (!visited[u]) heap.emplace(++weight[u], -u);
    });
  }
  return order;
}

bool IsPerfectEliminationOrdering(const Graph& g,
                                  const std::vector<int>& elimination_order) {
  const int n = g.NumVertices();
  assert(static_cast<int>(elimination_order.size()) == n);
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[elimination_order[i]] = i;

  // Standard check: for each v, let L(v) be the neighbors eliminated after v
  // and u the member of L(v) eliminated first. Then L(v) \ {u} must be
  // adjacent to u. This is equivalent to L(v) being a clique for all v.
  for (int i = 0; i < n; ++i) {
    int v = elimination_order[i];
    int u = -1;
    VertexSet later(n);
    g.Neighbors(v).ForEach([&](int w) {
      if (position[w] > i) {
        later.Insert(w);
        if (u == -1 || position[w] < position[u]) u = w;
      }
    });
    if (u == -1) continue;
    later.Erase(u);
    if (!later.IsSubsetOf(g.Neighbors(u))) return false;
  }
  return true;
}

bool IsChordal(const Graph& g) {
  std::vector<int> order = MaximumCardinalitySearch(g);
  std::reverse(order.begin(), order.end());
  return IsPerfectEliminationOrdering(g, order);
}

std::vector<int> PerfectEliminationOrdering(const Graph& g) {
  std::vector<int> order = MaximumCardinalitySearch(g);
  std::reverse(order.begin(), order.end());
  assert(IsPerfectEliminationOrdering(g, order));
  return order;
}

}  // namespace mintri
