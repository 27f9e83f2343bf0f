#include "enumeration/tree_decomposition.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <string>
#include <utility>

#include "chordal/clique_tree.h"
#include "chordal/minimality.h"

namespace mintri {

int TreeDecomposition::Width() const {
  int w = -1;
  for (const VertexSet& b : bags) w = std::max(w, b.Count() - 1);
  return w;
}

bool TreeDecomposition::IsValidFor(const Graph& g) const {
  const int n = g.NumVertices();
  const int k = static_cast<int>(bags.size());
  if (k == 0) return n == 0;

  // Tree shape: k nodes, acyclic, and (for connected coverage of bags) a
  // forest; each edge must reference valid nodes.
  std::vector<std::vector<int>> adj(k);
  for (const auto& [a, b] : edges) {
    if (a < 0 || b < 0 || a >= k || b >= k || a == b) return false;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  // Acyclicity via union-find.
  std::vector<int> uf(k);
  for (int i = 0; i < k; ++i) uf[i] = i;
  auto find = [&](int x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  for (const auto& [a, b] : edges) {
    int ra = find(a), rb = find(b);
    if (ra == rb) return false;  // cycle
    uf[ra] = rb;
  }

  // Vertex cover + edge cover.
  VertexSet covered(n);
  for (const VertexSet& b : bags) covered.UnionWith(b);
  if (covered.Count() != n) return false;
  for (const auto& [u, v] : g.Edges()) {
    bool found = false;
    for (const VertexSet& b : bags) {
      if (b.Contains(u) && b.Contains(v)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }

  // Junction property: for each vertex, the bags containing it induce a
  // connected subtree.
  for (int v = 0; v < n; ++v) {
    std::vector<int> holders;
    for (int i = 0; i < k; ++i) {
      if (bags[i].Contains(v)) holders.push_back(i);
    }
    if (holders.empty()) return false;
    // BFS within holder-induced subgraph of the tree.
    std::set<int> holder_set(holders.begin(), holders.end());
    std::vector<int> queue = {holders[0]};
    std::set<int> seen = {holders[0]};
    for (size_t h = 0; h < queue.size(); ++h) {
      for (int nb : adj[queue[h]]) {
        if (holder_set.count(nb) && !seen.count(nb)) {
          seen.insert(nb);
          queue.push_back(nb);
        }
      }
    }
    if (seen.size() != holder_set.size()) return false;
  }
  return true;
}

bool TreeDecomposition::IsProperFor(const Graph& g) const {
  if (!IsValidFor(g)) return false;
  // Saturate all bags; the result must be a minimal triangulation whose
  // maximal cliques are exactly the bags, with no duplicate bags
  // (β is a bijection onto MaxClq, Theorem 2.2(3)).
  Graph h = g;
  for (const VertexSet& b : bags) h.SaturateSet(b);
  if (!IsMinimalTriangulation(g, h)) return false;
  std::vector<VertexSet> cliques = MaximalCliquesOfChordal(h);
  std::vector<VertexSet> sorted_bags = bags;
  std::sort(sorted_bags.begin(), sorted_bags.end());
  if (std::adjacent_find(sorted_bags.begin(), sorted_bags.end()) !=
      sorted_bags.end()) {
    return false;  // duplicate bags
  }
  std::sort(cliques.begin(), cliques.end());
  return sorted_bags == cliques;
}

void WritePaceTd(const std::vector<int>& members,
                 const std::vector<BagRange>& bags,
                 const std::vector<std::pair<int, int>>& edges,
                 int num_graph_vertices, std::ostream& out) {
  std::string buf;
  char digits[16];
  auto put = [&](long long value, char sep) {
    char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    buf.append(digits, end);
    buf.push_back(sep);
  };
  const int k = static_cast<int>(bags.size());
  int max_bag = 0;
  for (const BagRange& bag : bags) max_bag = std::max(max_bag, bag.size());
  buf.append("s td ");
  put(k, ' ');
  put(max_bag, ' ');
  put(num_graph_vertices, '\n');
  for (int i = 0; i < k; ++i) {
    buf.append("b ");
    put(i + 1, bags[i].size() == 0 ? '\n' : ' ');
    for (int at = bags[i].begin; at < bags[i].end; ++at) {
      put(members[at] + 1, at + 1 == bags[i].end ? '\n' : ' ');
    }
  }
  // A .td is one tree: join every further tree of a forest (a disconnected
  // graph) to the first bag by an empty-adhesion edge, so b bags always
  // come with b - 1 edges.
  std::vector<int> tree_of(k);
  for (int i = 0; i < k; ++i) tree_of[i] = i;
  auto find = [&](int x) {
    while (tree_of[x] != x) x = tree_of[x] = tree_of[tree_of[x]];
    return x;
  };
  for (const auto& [a, b] : edges) {
    put(a + 1, ' ');
    put(b + 1, '\n');
    tree_of[find(a)] = find(b);
  }
  for (int i = 1; i < k; ++i) {
    if (find(i) == find(0)) continue;
    put(1, ' ');
    put(i + 1, '\n');
    tree_of[find(i)] = find(0);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void WritePaceTd(const TreeDecomposition& td, int num_graph_vertices,
                 std::ostream& out) {
  std::vector<int> members;
  std::vector<BagRange> bags;
  for (const VertexSet& bag : td.bags) {
    const int begin = static_cast<int>(members.size());
    bag.ForEach([&](int v) { members.push_back(v); });
    bags.push_back({begin, static_cast<int>(members.size())});
  }
  WritePaceTd(members, bags, td.edges, num_graph_vertices, out);
}

TreeDecomposition CliqueTreeOf(Triangulation t) {
  TreeDecomposition td;
  td.bags = std::move(t.bags);
  for (size_t i = 0; i < t.parent.size(); ++i) {
    if (t.parent[i] >= 0) {
      td.edges.emplace_back(t.parent[i], static_cast<int>(i));
    }
  }
  return td;
}

}  // namespace mintri
