#include "checker.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

// A simple undirected graph: adjacency lists plus an adjacency matrix, and
// one edge that may be masked out (for the minimality test).
class Graph {
 public:
  explicit Graph(int n)
      : n_(n), adj_(n), matrix_(static_cast<size_t>(n) * n) {}

  int n() const { return n_; }
  bool HasEdge(int u, int v) const {
    if (IsMasked(u, v)) return false;
    return matrix_[static_cast<size_t>(u) * n_ + v] != 0;
  }
  bool AddEdge(int u, int v) {
    if (u == v || matrix_[static_cast<size_t>(u) * n_ + v]) return false;
    matrix_[static_cast<size_t>(u) * n_ + v] = 1;
    matrix_[static_cast<size_t>(v) * n_ + u] = 1;
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    return true;
  }
  template <typename Fn>
  void ForEachNeighbor(int v, Fn&& fn) const {
    for (int w : adj_[v]) {
      if (!IsMasked(v, w)) fn(w);
    }
  }
  void Mask(int u, int v) { mask_u_ = u, mask_v_ = v; }
  void Unmask() { mask_u_ = mask_v_ = -1; }

 private:
  bool IsMasked(int u, int v) const {
    return (u == mask_u_ && v == mask_v_) || (u == mask_v_ && v == mask_u_);
  }

  int n_;
  std::vector<std::vector<int>> adj_;
  std::vector<char> matrix_;
  int mask_u_ = -1;
  int mask_v_ = -1;
};

// Maximum cardinality search (Tarjan–Yannakakis) with lazy buckets; returns
// the visit order. Its reverse is a perfect elimination order iff g is
// chordal.
std::vector<int> McsOrder(const Graph& g) {
  const int n = g.n();
  std::vector<int> weight(n, 0);
  std::vector<char> done(n, 0);
  std::vector<std::vector<int>> buckets(n + 1);
  for (int v = n - 1; v >= 0; --v) buckets[0].push_back(v);
  std::vector<int> order;
  order.reserve(n);
  int top = 0;
  while (static_cast<int>(order.size()) < n) {
    while (buckets[top].empty()) --top;
    int v = buckets[top].back();
    buckets[top].pop_back();
    if (done[v] || weight[v] != top) continue;  // stale entry
    done[v] = 1;
    order.push_back(v);
    g.ForEachNeighbor(v, [&](int w) {
      if (done[w]) return;
      buckets[++weight[w]].push_back(w);
      top = std::max(top, weight[w]);
    });
  }
  return order;
}

// Chordality test: eliminating vertices in reverse MCS order, each vertex's
// later-eliminated neighbours must form a clique. It suffices to check that
// they are all adjacent to the one eliminated first (its parent). Also
// returns the clique number through *max_clique.
bool IsChordal(const Graph& g, int* max_clique) {
  const int n = g.n();
  std::vector<int> order = McsOrder(g);
  std::vector<int> position(n);  // elimination position: reverse MCS order
  for (int i = 0; i < n; ++i) position[order[i]] = n - 1 - i;
  int clique = n > 0 ? 1 : 0;
  std::vector<int> later;
  for (int v = 0; v < n; ++v) {
    later.clear();
    int parent = -1;
    g.ForEachNeighbor(v, [&](int w) {
      if (position[w] < position[v]) return;
      later.push_back(w);
      if (parent < 0 || position[w] < position[parent]) parent = w;
    });
    clique = std::max(clique, static_cast<int>(later.size()) + 1);
    for (int w : later) {
      if (w != parent && !g.HasEdge(parent, w)) return false;
    }
  }
  if (max_clique != nullptr) *max_clique = clique;
  return true;
}

// Splits "key value" tokens of a result header into the Result fields.
bool ParseHeader(const std::string& line, Result* r) {
  std::istringstream in(line);
  std::string c, word;
  in >> c >> word >> r->rank;
  if (c != "c" || word != "result" || !in) return false;
  std::string key;
  while (in >> key) {
    if (key == "cost") {
      in >> r->cost;
    } else if (key == "width") {
      in >> r->width;
    } else if (key == "fill") {
      in >> r->fill;
    } else if (key == "tier") {
      in >> r->tier;
    } else {
      return false;
    }
    if (!in) return false;
  }
  return true;
}

std::vector<std::pair<int, int>> FillEdges(const Graph& h,
                                           const Graph& g) {
  std::vector<std::pair<int, int>> fill;
  for (int u = 0; u < h.n(); ++u) {
    h.ForEachNeighbor(u, [&](int v) {
      if (u < v && !g.HasEdge(u, v)) fill.emplace_back(u, v);
    });
  }
  std::sort(fill.begin(), fill.end());
  return fill;
}

Graph BuildGraph(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  for (auto [u, v] : edges) g.AddEdge(u, v);
  return g;
}

// H = union of cliques on the bags; false when a bag names a bad vertex.
bool BuildTriangulation(const Graph& g, const Result& r, Graph* h) {
  for (const auto& bag : r.bags) {
    for (int v : bag) {
      if (v < 0 || v >= g.n()) return false;
    }
    for (size_t i = 0; i < bag.size(); ++i) {
      for (size_t j = i + 1; j < bag.size(); ++j) h->AddEdge(bag[i], bag[j]);
    }
  }
  return true;
}

std::string Describe(const Result& r, const std::string& what) {
  return "result #" + std::to_string(r.rank) + ": " + what;
}

// Per-result checks; returns the first violation or "".
std::string CheckResult(const Graph& g,
                        const std::vector<std::pair<int, int>>& edges,
                        const Result& r,
                        std::vector<std::pair<int, int>>* fill) {
  Graph h(g.n());
  if (!BuildTriangulation(g, r, &h)) {
    return Describe(r, "bag names a vertex outside the graph");
  }
  for (auto [u, v] : edges) {
    if (!h.HasEdge(u, v)) {
      return Describe(r, "edge " + std::to_string(u + 1) + "-" +
                             std::to_string(v + 1) + " is in no bag");
    }
  }
  int clique = 0;
  if (!IsChordal(h, &clique)) return Describe(r, "H is not chordal");
  *fill = FillEdges(h, g);
  for (auto [u, v] : *fill) {
    h.Mask(u, v);
    const bool still_chordal = IsChordal(h, nullptr);
    h.Unmask();
    if (still_chordal) {
      return Describe(r, "not minimal: fill edge " + std::to_string(u + 1) +
                             "-" + std::to_string(v + 1) + " is removable");
    }
  }
  const long long width = clique - 1;
  if (r.width != width || r.cost != static_cast<double>(width)) {
    return Describe(r, "printed cost/width " + std::to_string(r.cost) + "/" +
                           std::to_string(r.width) + " but H has width " +
                           std::to_string(width));
  }
  if (r.fill != static_cast<long long>(fill->size())) {
    return Describe(r, "printed fill " + std::to_string(r.fill) +
                           " but H has " + std::to_string(fill->size()));
  }
  return "";
}

uint64_t Fnv(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

bool ParseTdResults(const std::string& text, std::vector<Result>* results,
                    std::string* error) {
  std::istringstream in(text);
  std::string line;
  long long line_no = 0;
  size_t expected_bags = 0;
  auto fail = [&](const std::string& what) {
    *error = "output line " + std::to_string(line_no) + ": " + what;
    return false;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) return fail("empty line");
    if (line[0] == 'c') {
      if (!results->empty() && results->back().bags.size() != expected_bags) {
        return fail("previous result has the wrong bag count");
      }
      results->emplace_back();
      if (!ParseHeader(line, &results->back())) return fail("bad header");
      continue;
    }
    if (results->empty()) return fail("td line before any result header");
    std::istringstream fields(line);
    if (line[0] == 's') {
      std::string s, td;
      fields >> s >> td >> expected_bags;
      if (td != "td" || !fields) return fail("bad td header");
    } else if (line[0] == 'b') {
      std::string b;
      int id = 0;
      fields >> b >> id;
      std::vector<int> bag;
      int v = 0;
      while (fields >> v) bag.push_back(v - 1);
      if (!fields.eof()) return fail("bad bag line");
      results->back().bags.push_back(std::move(bag));
    }
    // Tree-edge lines ("i j") carry nothing the checks need.
  }
  if (!results->empty() && results->back().bags.size() != expected_bags) {
    return fail("last result has the wrong bag count");
  }
  return true;
}

Verdict CheckStream(int n, const std::vector<std::pair<int, int>>& edges,
                    const std::vector<Result>& results,
                    long long expected_results, int treewidth) {
  Verdict verdict;
  const Graph g = BuildGraph(n, edges);
  std::set<std::vector<std::pair<int, int>>> seen;
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::vector<std::pair<int, int>> fill;
    std::string error = CheckResult(g, edges, r, &fill);
    if (error.empty() && !seen.insert(std::move(fill)).second) {
      error = Describe(r, "duplicate fill set");
    }
    if (error.empty() && i > 0 && r.cost < results[i - 1].cost) {
      error = Describe(r, "κ decreased");
    }
    if (error.empty() && r.rank != static_cast<long long>(i) + 1) {
      error = Describe(r, "out of sequence");
    }
    if (!error.empty()) {
      if (verdict.error.empty()) verdict.error = error;
      continue;
    }
    ++verdict.verified;
  }
  if (verdict.error.empty() &&
      static_cast<long long>(results.size()) != expected_results) {
    verdict.error = "expected " + std::to_string(expected_results) +
                    " results, got " + std::to_string(results.size());
  }
  if (verdict.error.empty() && !results.empty() &&
      results[0].cost != static_cast<double>(treewidth)) {
    verdict.error = "first κ " + std::to_string(results[0].cost) +
                    " differs from the treewidth " + std::to_string(treewidth);
  }
  return verdict;
}

bool IsChordalGraph(int n, const std::vector<std::pair<int, int>>& edges) {
  return IsChordal(BuildGraph(n, edges), nullptr);
}

uint64_t StreamChecksum(int n, const std::vector<std::pair<int, int>>& edges,
                        const std::vector<Result>& results) {
  const Graph g = BuildGraph(n, edges);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Result& r : results) {
    Graph t(n);
    BuildTriangulation(g, r, &t);
    h = Fnv(h, static_cast<uint64_t>(static_cast<long long>(r.cost)));
    for (auto [u, v] : FillEdges(t, g)) {
      h = Fnv(h, static_cast<uint64_t>(u) << 32 | static_cast<uint32_t>(v));
    }
    h = Fnv(h, ~0ULL);  // result separator
  }
  return h;
}

}  // namespace perfbench
