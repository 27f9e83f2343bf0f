#ifndef MINTRI_TESTS_TEST_UTIL_H_
#define MINTRI_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "chordal/minimality.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/tiered_enum.h"
#include "graph/graph.h"
#include "separators/crossing.h"
#include "separators/minimal_separators.h"

namespace mintri {
namespace testutil {

inline Graph MakeGraph(int n,
                       std::initializer_list<std::pair<int, int>> edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

/// The running-example graph of Figure 1: vertices
/// 0=u, 1=v, 2=v', 3=w1, 4=w2, 5=w3. It has exactly 3 minimal separators
/// ({w1,w2,w3}, {u,v}, {v}), 6 potential maximal cliques, and 2 minimal
/// triangulations.
inline Graph PaperExampleGraph() {
  return MakeGraph(6, {{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5},
                       {1, 2}});
}

using FillSet = std::vector<std::pair<int, int>>;

inline FillSet FillKey(const Graph& g, const Graph& h) {
  FillSet fill;
  for (const auto& [u, v] : h.Edges()) {
    if (!g.HasEdge(u, v)) fill.emplace_back(u, v);
  }
  std::sort(fill.begin(), fill.end());
  return fill;
}

/// Tier options for Mode::kExact: the ranked product over the connected
/// components, with no Tier 0 and no fallback.
inline TierOptions ExactTier() {
  TierOptions t;
  t.mode = TierOptions::Mode::kExact;
  return t;
}

/// Reference ranked product for the tiered enumerator, with no heap and no
/// lazy materialization: drain every connected component's
/// RankedTriangulationEnumerator, form every index tuple, and sort the
/// tuples by (composed cost, index tuple) — the order Mode::kExact must
/// emit. Each result is assembled like the enumerator does (component bags
/// relabeled to g, parents offset per component, separators sorted), so
/// the two streams can be compared field by field. Exponential; for tests
/// only. Returns std::nullopt if some component fails to build.
///
/// `limit` keeps only the first `limit` results. Every tuple with an index
/// >= limit in some coordinate has at least `limit` cheaper-or-equal,
/// lexicographically smaller tuples ahead of it, so draining each component
/// to `limit` results is enough.
inline std::optional<std::vector<Triangulation>> RankedProductOracle(
    const Graph& g, const BagCost& cost, CostComposition composition,
    size_t limit = SIZE_MAX) {
  const int n = g.NumVertices();
  std::vector<std::vector<int>> old_of_new;
  std::vector<std::vector<Triangulation>> streams;
  for (const VertexSet& comp : g.ConnectedComponents()) {
    std::vector<int> labels;
    comp.ForEach([&](int v) { labels.push_back(v); });
    Graph sub = g.InducedSubgraph(comp);
    auto ctx = TriangulationContext::Build(sub);
    if (!ctx.has_value()) return std::nullopt;
    std::unique_ptr<BagCost> restricted;
    if (sub.NumVertices() != n) restricted = cost.RestrictTo(labels, n);
    RankedTriangulationEnumerator e(*ctx, restricted ? *restricted : cost);
    std::vector<Triangulation> stream;
    while (stream.size() < limit) {
      auto t = e.Next();
      if (!t.has_value()) break;
      stream.push_back(std::move(*t));
    }
    if (stream.empty()) return std::vector<Triangulation>{};
    old_of_new.push_back(std::move(labels));
    streams.push_back(std::move(stream));
  }
  if (streams.empty()) return std::vector<Triangulation>{};

  auto compose = [&](const std::vector<size_t>& tuple) {
    CostValue acc = composition == CostComposition::kMax ? -kInfiniteCost : 0;
    for (size_t c = 0; c < tuple.size(); ++c) {
      CostValue v = streams[c][tuple[c]].cost;
      acc = composition == CostComposition::kMax ? std::max(acc, v) : acc + v;
    }
    return acc;
  };
  std::vector<std::pair<CostValue, std::vector<size_t>>> tuples;
  std::vector<size_t> tuple(streams.size(), 0);
  while (true) {  // odometer over every index tuple
    tuples.emplace_back(compose(tuple), tuple);
    size_t c = 0;
    while (c < tuple.size() && ++tuple[c] == streams[c].size()) {
      tuple[c++] = 0;
    }
    if (c == tuple.size()) break;
  }
  std::sort(tuples.begin(), tuples.end());
  if (tuples.size() > limit) tuples.resize(limit);

  std::vector<Triangulation> out;
  for (const auto& [composed, indices] : tuples) {
    Triangulation t;
    t.filled = g;
    for (size_t c = 0; c < indices.size(); ++c) {
      const Triangulation& part = streams[c][indices[c]];
      const int offset = static_cast<int>(t.bags.size());
      for (size_t b = 0; b < part.bags.size(); ++b) {
        VertexSet bag(n);
        part.bags[b].ForEach([&](int v) { bag.Insert(old_of_new[c][v]); });
        t.filled.SaturateSet(bag);
        t.bags.push_back(std::move(bag));
        t.parent.push_back(part.parent[b] < 0 ? -1 : part.parent[b] + offset);
      }
      for (const VertexSet& s : part.separators) {
        VertexSet sep(n);
        s.ForEach([&](int v) { sep.Insert(old_of_new[c][v]); });
        t.separators.push_back(std::move(sep));
      }
    }
    std::sort(t.separators.begin(), t.separators.end());
    t.cost = composed;
    out.push_back(std::move(t));
  }
  return out;
}

/// All maximal sets of pairwise-parallel minimal separators, via
/// Bron–Kerbosch over the "parallel" relation. Exponential; for tests only.
inline std::vector<std::vector<VertexSet>> AllMaximalParallelSets(
    const Graph& g) {
  std::vector<VertexSet> seps =
      ListMinimalSeparators(g).separators;
  const int k = static_cast<int>(seps.size());
  // parallel[i][j] over the separator indices.
  std::vector<std::vector<bool>> parallel(k, std::vector<bool>(k, false));
  for (int i = 0; i < k; ++i) {
    ComponentLabeling labeling(g, seps[i]);
    for (int j = 0; j < k; ++j) {
      if (i != j) parallel[i][j] = labeling.IsParallelTo(seps[j]);
    }
  }
  // Crossing is symmetric, hence so is parallelism; assert for sanity.
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (parallel[i][j] != parallel[j][i]) std::abort();
    }
  }

  std::vector<std::vector<VertexSet>> result;
  // Bron–Kerbosch (no pivot; test scale) for maximal cliques of the
  // parallel graph.
  std::vector<int> r, p, x;
  for (int i = 0; i < k; ++i) p.push_back(i);
  struct BK {
    const std::vector<std::vector<bool>>& adj;
    const std::vector<VertexSet>& seps;
    std::vector<std::vector<VertexSet>>& out;
    void Run(std::vector<int>& r, std::vector<int> p, std::vector<int> x) {
      if (p.empty() && x.empty()) {
        std::vector<VertexSet> clique;
        for (int i : r) clique.push_back(seps[i]);
        out.push_back(std::move(clique));
        return;
      }
      while (!p.empty()) {
        int v = p.back();
        p.pop_back();
        std::vector<int> p2, x2;
        for (int u : p) {
          if (adj[v][u]) p2.push_back(u);
        }
        for (int u : x) {
          if (adj[v][u]) x2.push_back(u);
        }
        r.push_back(v);
        Run(r, std::move(p2), std::move(x2));
        r.pop_back();
        x.push_back(v);
      }
    }
  };
  BK bk{parallel, seps, result};
  bk.Run(r, std::move(p), std::move(x));
  return result;
}

/// Reference enumeration of ALL minimal triangulations via Parra–Scheffler
/// (Theorem 2.5): saturate every maximal set of pairwise-parallel minimal
/// separators. Returns the canonical fill sets, sorted and deduplicated.
inline std::set<FillSet> BruteForceMinimalTriangulationFills(const Graph& g) {
  std::set<FillSet> fills;
  for (const std::vector<VertexSet>& m : AllMaximalParallelSets(g)) {
    Graph h = g;
    for (const VertexSet& s : m) h.SaturateSet(s);
    fills.insert(FillKey(g, h));
  }
  return fills;
}

}  // namespace testutil
}  // namespace mintri

#endif  // MINTRI_TESTS_TEST_UTIL_H_
