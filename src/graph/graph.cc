#include "graph/graph.h"

#include <algorithm>
#include <cassert>

#include "graph/bitset_kernels.h"

namespace mintri {

Graph::Graph(int n) : n_(n), adjacency_(n, VertexSet(n)) {}

void Graph::AddEdge(int u, int v) {
  assert(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v || adjacency_[u].Contains(v)) return;
  adjacency_[u].Insert(v);
  adjacency_[v].Insert(u);
  ++num_edges_;
}

VertexSet Graph::ClosedNeighborhood(int v) const {
  VertexSet s = adjacency_[v];
  s.Insert(v);
  return s;
}

VertexSet Graph::NeighborhoodOfSet(const VertexSet& s) const {
  VertexSet out;
  NeighborhoodOfSetInto(s, &out);
  return out;
}

void Graph::NeighborhoodOfSetInto(const VertexSet& s, VertexSet* out) const {
  out->Reset(n_);
  s.ForEach([&](int v) { out->UnionWith(adjacency_[v]); });
  out->MinusWith(s);
}

void Graph::SaturateSet(const VertexSet& u) {
  std::vector<int> vs = u.ToVector();
  for (size_t i = 0; i < vs.size(); ++i) {
    for (size_t j = i + 1; j < vs.size(); ++j) {
      AddEdge(vs[i], vs[j]);
    }
  }
}

bool Graph::IsClique(const VertexSet& u) const {
  // u is a clique iff every v in u is adjacent to all other members.
  bool ok = true;
  u.ForEach([&](int v) {
    if (!ok) return;
    VertexSet rest = u;
    rest.Erase(v);
    if (!rest.IsSubsetOf(adjacency_[v])) ok = false;
  });
  return ok;
}

std::vector<std::pair<int, int>> Graph::Edges() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(num_edges_);
  for (int u = 0; u < n_; ++u) {
    adjacency_[u].ForEach([&](int v) {
      if (u < v) out.emplace_back(u, v);
    });
  }
  return out;
}

Graph Graph::InducedSubgraph(const VertexSet& keep,
                             std::vector<int>* old_to_new) const {
  std::vector<int> map(n_, -1);
  int next = 0;
  keep.ForEach([&](int v) { map[v] = next++; });
  Graph g(next);
  keep.ForEach([&](int u) {
    VertexSet nbrs = adjacency_[u].Intersect(keep);
    nbrs.ForEach([&](int v) {
      if (u < v) g.AddEdge(map[u], map[v]);
    });
  });
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return g;
}

std::vector<VertexSet> Graph::ConnectedComponents() const {
  return ComponentsAfterRemoving(VertexSet(n_));
}

std::vector<Graph> Graph::ComponentSubgraphs(
    std::vector<std::vector<int>>* old_of_new) const {
  std::vector<Graph> subgraphs;
  old_of_new->clear();
  // label[v]: -1 until v is reached, then v's index within its component
  // (0 as a placeholder until the component is complete and sorted).
  std::vector<int> label(n_, -1);
  std::vector<std::pair<int, int>> edges;
  for (int start = 0; start < n_; ++start) {
    if (label[start] >= 0) continue;
    std::vector<int> component = {start};
    label[start] = 0;
    edges.clear();
    for (size_t i = 0; i < component.size(); ++i) {
      const int u = component[i];
      adjacency_[u].ForEach([&](int v) {
        if (label[v] < 0) {
          label[v] = 0;
          component.push_back(v);
        }
        if (u < v) edges.emplace_back(u, v);
      });
    }
    std::sort(component.begin(), component.end());
    for (size_t i = 0; i < component.size(); ++i) {
      label[component[i]] = static_cast<int>(i);
    }
    Graph sub(static_cast<int>(component.size()));
    for (const auto& [u, v] : edges) sub.AddEdge(label[u], label[v]);
    subgraphs.push_back(std::move(sub));
    old_of_new->push_back(std::move(component));
  }
  return subgraphs;
}

std::vector<VertexSet> Graph::ComponentsAfterRemoving(
    const VertexSet& removed) const {
  std::vector<VertexSet> components;
  ComponentScanner scanner;
  scanner.ForEachComponent(
      *this, removed,
      [&](const VertexSet& c, const VertexSet&) { components.push_back(c); });
  return components;
}

VertexSet Graph::ComponentOf(int v, const VertexSet& removed) const {
  assert(!removed.Contains(v));
  ComponentScanner scanner;
  return scanner.ComponentOf(*this, removed, v);
}

bool Graph::IsConnected() const {
  if (n_ == 0) return true;
  return ComponentOf(0, VertexSet(n_)).Count() == n_;
}

Graph Graph::UnionOf(const Graph& a, const Graph& b) {
  assert(a.n_ == b.n_);
  Graph g = a;
  for (int u = 0; u < b.n_; ++u) {
    b.adjacency_[u].ForEach([&](int v) {
      if (u < v) g.AddEdge(u, v);
    });
  }
  return g;
}

void ComponentScanner::Components(const Graph& g, const VertexSet& removed,
                                  std::vector<VertexSet>* components) {
  size_t count = 0;
  ForEachComponent(g, removed, [&](const VertexSet& c, const VertexSet&) {
    if (count < components->size()) {
      (*components)[count] = c;  // reuses the element's buffer
    } else {
      components->push_back(c);
    }
    ++count;
  });
  components->resize(count);
}

const VertexSet& ComponentScanner::ComponentOf(const Graph& g,
                                               const VertexSet& removed,
                                               int v) {
  assert(!removed.Contains(v));
  ScanFrom(g, removed, v);
  return component_;
}

const VertexSet& ComponentScanner::ComponentNeighborhood(
    const Graph& g, const VertexSet& removed, int v) {
  assert(!removed.Contains(v));
  ScanFrom(g, removed, v);
  return neighborhood_;
}

void ComponentScanner::ScanFrom(const Graph& g, const VertexSet& removed,
                                int start) {
  const int n = g.NumVertices();
  component_.Reset(n);
  component_.Insert(start);
  neighborhood_.Reset(n);
  frontier_.Reset(n);
  frontier_.Insert(start);
  reach_.Reset(n);
  // The four accumulators are long-lived scratch that the fused kernel
  // below stores through millions of times: keep their words on the heap
  // (idempotent after the first scan) so those stores cannot alias the
  // scanner's own members — see VertexSet::PinWordsToHeap.
  component_.PinWordsToHeap();
  neighborhood_.PinWordsToHeap();
  frontier_.PinWordsToHeap();
  reach_.PinWordsToHeap();
  const size_t words = component_.words_.size();
  while (true) {
    frontier_.ForEach([&](int u) { reach_.UnionWith(g.Neighbors(u)); });
    // Fused level update, one kernel pass over the words: fold the reach
    // into the neighborhood accumulator (∪_{u∈C} N(u)), compute the next
    // frontier (reached, not removed, not yet visited), and grow the
    // component.
    if (bitset::BfsFusedStep(component_.words_.data(),
                             frontier_.words_.data(),
                             neighborhood_.words_.data(), reach_.words_.data(),
                             removed.words_.data(), words) == 0) {
      break;
    }
  }
  // ∪N(u) \ C = N(C).
  bitset::MinusInto(neighborhood_.words_.data(), component_.words_.data(),
                    words);
  component_.hash_valid_ = false;
  neighborhood_.hash_valid_ = false;
  frontier_.hash_valid_ = false;
}

}  // namespace mintri
