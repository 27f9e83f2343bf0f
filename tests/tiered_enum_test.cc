#include "enumeration/tiered_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chordal/chordality.h"
#include "chordal/clique_tree.h"
#include "chordal/lb_triang.h"
#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "triang/triangulation.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::ExactTier;
using testutil::FillSet;
using testutil::MakeGraph;

constexpr int kExhaustCap = 20000;

// Full stream of one enumerator as (cost sequence, cost -> fill-set class).
struct Stream {
  std::vector<CostValue> costs;
  std::map<CostValue, std::set<FillSet>> classes;
};

Stream Drain(const Graph& g, TieredEnumerator* e) {
  Stream s;
  for (int i = 0; i < kExhaustCap; ++i) {
    auto t = e->Next();
    if (!t.has_value()) return s;
    s.costs.push_back(t->triangulation.cost);
    s.classes[t->triangulation.cost].insert(
        testutil::FillKey(g, t->triangulation.filled));
  }
  ADD_FAILURE() << "stream did not terminate within " << kExhaustCap;
  return s;
}

// The reference stream: the heap-free ranked-product oracle.
std::vector<Triangulation> Oracle(const Graph& g, const BagCost& cost,
                                  CostComposition composition,
                                  size_t limit = SIZE_MAX) {
  auto expected = testutil::RankedProductOracle(g, cost, composition, limit);
  EXPECT_TRUE(expected.has_value()) << "n=" << g.NumVertices();
  return expected.value_or(std::vector<Triangulation>{});
}

Stream OracleStream(const Graph& g, const BagCost& cost,
                    CostComposition composition) {
  Stream s;
  for (const Triangulation& t : Oracle(g, cost, composition)) {
    s.costs.push_back(t.cost);
    s.classes[t.cost].insert(testutil::FillKey(g, t.filled));
  }
  return s;
}

// Drains `e` into `got` and requires it to equal `expected` field by field:
// the same order, bags, clique-tree parents, separators and costs.
void ExpectSameStream(const std::vector<Triangulation>& expected,
                      TieredEnumerator* e, const std::string& label,
                      std::vector<Triangulation>* got = nullptr) {
  for (size_t i = 0; i < expected.size(); ++i) {
    auto r = e->Next();
    ASSERT_TRUE(r.has_value()) << label << " ended early at " << i;
    const Triangulation& t = r->triangulation;
    EXPECT_EQ(r->tier, SolveTier::kExact) << label;
    EXPECT_EQ(t.cost, expected[i].cost) << label << " #" << i;
    EXPECT_EQ(t.bags, expected[i].bags) << label << " #" << i;
    EXPECT_EQ(t.parent, expected[i].parent) << label << " #" << i;
    EXPECT_EQ(t.separators, expected[i].separators) << label << " #" << i;
    if (got != nullptr) got->push_back(t);
  }
  EXPECT_FALSE(e->Next().has_value()) << label << " has extra results";
}

TierOptions AutoOptions(bool decomposable) {
  TierOptions t;
  t.mode = TierOptions::Mode::kAuto;
  t.decomposable_cost = decomposable;
  return t;
}

std::vector<Graph> DifferentialCorpus() {
  std::vector<Graph> corpus;
  corpus.push_back(testutil::PaperExampleGraph());
  corpus.push_back(workloads::Cycle(4));
  corpus.push_back(workloads::Cycle(6));
  corpus.push_back(MakeGraph(4, {{1, 2}}));  // isolated vertices
  // Bowtie: a cut vertex, so Tier 0 genuinely splits.
  corpus.push_back(
      MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}));
  // C4s glued on a saturated edge: a size-2 clique separator.
  corpus.push_back(MakeGraph(
      6, {{0, 1}, {0, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}}));
  for (uint64_t seed = 0; seed < 6; ++seed) {
    corpus.push_back(workloads::ConnectedErdosRenyi(9, 0.3, seed));
  }
  for (uint64_t seed = 0; seed < 3; ++seed) {
    corpus.push_back(workloads::ErdosRenyi(10, 0.25, seed));  // may split
  }
  return corpus;
}

// The tentpole differential: whenever Tier 1 suffices, the tiered stream
// must equal the direct exact stream — same κ sequence and, within every
// κ class, the same set of triangulations (tie order inside a class may
// legally differ once Tier 0 rewrites the units).
TEST(TieredEnumTest, DifferentialWidthEqualsDirect) {
  for (const Graph& g : DifferentialCorpus()) {
    WidthCost width;
    Stream expected = OracleStream(g, width, CostComposition::kMax);

    TieredEnumerator tiered(g, width, CostComposition::kMax, {}, {},
                            AutoOptions(true));
    EXPECT_NE(tiered.tier(), SolveTier::kHeuristic);
    Stream got = Drain(g, &tiered);
    EXPECT_EQ(got.costs, expected.costs) << "n=" << g.NumVertices();
    EXPECT_EQ(got.classes, expected.classes) << "n=" << g.NumVertices();
  }
}

TEST(TieredEnumTest, DifferentialFillSumEqualsDirect) {
  for (const Graph& g : DifferentialCorpus()) {
    FillInCost fill;
    Stream expected = OracleStream(g, fill, CostComposition::kSum);

    TieredEnumerator tiered(g, fill, CostComposition::kSum, {}, {},
                            AutoOptions(true));
    Stream got = Drain(g, &tiered);
    EXPECT_EQ(got.costs, expected.costs) << "n=" << g.NumVertices();
    EXPECT_EQ(got.classes, expected.classes) << "n=" << g.NumVertices();
  }
}

// A non-decomposable cost keeps the units at whole connected components, so
// the auto stream must be byte-for-byte the component product (tie order
// included).
TEST(TieredEnumTest, NonDecomposableCostReplaysProductExactly) {
  for (const Graph& g : DifferentialCorpus()) {
    WidthCost width;
    TieredEnumerator tiered(g, width, CostComposition::kMax, {}, {},
                            AutoOptions(false));
    EXPECT_EQ(tiered.tier(), SolveTier::kExact);
    ExpectSameStream(Oracle(g, width, CostComposition::kMax), &tiered,
                     "n=" + std::to_string(g.NumVertices()));
  }
}

TEST(TieredEnumTest, FamilyCorpusPrefixDifferential) {
  // Medium graphs (n <= 40): compare the first 50 κ values of the tiered
  // stream against the direct stream at several thread counts.
  std::vector<Graph> graphs = {workloads::Grid(4, 5), workloads::Queen(4),
                               workloads::ConnectedErdosRenyi(24, 0.12, 5)};
  for (const Graph& g : graphs) {
    WidthCost width;
    std::vector<CostValue> expected;
    for (const Triangulation& t :
         Oracle(g, width, CostComposition::kMax, /*limit=*/50)) {
      expected.push_back(t.cost);
    }
    for (int threads : {1, 2, 4}) {
      ContextOptions options;
      options.num_threads = threads;
      TieredEnumerator tiered(g, width, CostComposition::kMax, options, {},
                              AutoOptions(true));
      EXPECT_NE(tiered.tier(), SolveTier::kHeuristic);
      std::vector<CostValue> got;
      for (size_t i = 0; i < expected.size(); ++i) {
        auto t = tiered.Next();
        ASSERT_TRUE(t.has_value()) << "threads=" << threads;
        got.push_back(t->triangulation.cost);
      }
      EXPECT_EQ(got, expected) << "n=" << g.NumVertices()
                               << " threads=" << threads;
    }
  }
}

TEST(TieredEnumTest, StreamIdenticalAtEveryThreadCount) {
  Graph g = workloads::ConnectedErdosRenyi(18, 0.2, 9);
  WidthCost width;
  std::vector<Stream> streams;
  for (int threads : {1, 2, 4}) {
    ContextOptions options;
    options.num_threads = threads;
    TieredEnumerator e(g, width, CostComposition::kMax, options, {},
                       AutoOptions(true));
    streams.push_back(Drain(g, &e));
  }
  EXPECT_EQ(streams[0].costs, streams[1].costs);
  EXPECT_EQ(streams[0].costs, streams[2].costs);
  EXPECT_EQ(streams[0].classes, streams[1].classes);
  EXPECT_EQ(streams[0].classes, streams[2].classes);
}

TEST(TieredEnumTest, TierLabels) {
  WidthCost width;
  {
    // A simplicial vertex exists: Tier 0 rewrites, label atom-exact.
    Graph g = testutil::PaperExampleGraph();
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                       AutoOptions(true));
    EXPECT_EQ(e.tier(), SolveTier::kAtomExact);
    EXPECT_GE(e.preprocess_info().vertices_removed, 1);
  }
  {
    // C4 neither reduces nor splits: the stream is literally exact.
    Graph g = workloads::Cycle(4);
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                       AutoOptions(true));
    EXPECT_EQ(e.tier(), SolveTier::kExact);
  }
  {
    TierOptions t = AutoOptions(true);
    t.mode = TierOptions::Mode::kHeuristic;
    Graph g = workloads::Cycle(6);
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
    EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
  }
}

TEST(TieredEnumTest, HeuristicStreamIsValidAndSeeded) {
  // Tier-2 results are genuine minimal triangulations with truthful costs,
  // emitted in non-decreasing κ, and the first is at least as cheap as the
  // LB-Triang seed that anchors the restricted family.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(14, 0.25, seed);
    WidthCost width;
    TierOptions t = AutoOptions(true);
    t.mode = TierOptions::Mode::kHeuristic;
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
    EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
    Graph seed_triang = LbTriangMinDegree(g);
    CostValue last = -1;
    int count = 0;
    bool first = true;
    while (auto r = e.Next()) {
      const Triangulation& tr = r->triangulation;
      EXPECT_TRUE(IsChordal(tr.filled)) << "seed=" << seed;
      EXPECT_TRUE(IsMinimalTriangulation(g, tr.filled)) << "seed=" << seed;
      EXPECT_EQ(tr.cost, static_cast<CostValue>(tr.Width()))
          << "seed=" << seed;
      EXPECT_GE(tr.cost, last) << "seed=" << seed;
      if (first) {
        // First result is at most the seed triangulation's width.
        int lb_width = 0;
        for (const VertexSet& bag :
             TriangulationFromChordal(g, Graph(seed_triang)).bags) {
          lb_width = std::max(lb_width, bag.Count() - 1);
        }
        EXPECT_LE(tr.cost, static_cast<CostValue>(lb_width))
            << "seed=" << seed;
        first = false;
      }
      last = tr.cost;
      if (++count >= 200) break;
    }
    EXPECT_GE(count, 1) << "seed=" << seed;
  }
}

TEST(TieredEnumTest, ExhaustedBudgetFallsBackWithTruthfulTally) {
  Graph g = workloads::ConnectedErdosRenyi(16, 0.3, 2);
  WidthCost width;
  TierOptions t = AutoOptions(true);
  t.exact_budget_seconds = 0;  // the shared exact budget is already spent
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
  EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
  // Per-atom tally: every skipped exact attempt counts as an ms-terminated
  // build, and each fallback adds one completed family build on top.
  EXPECT_GE(e.init_info().num_ms_terminated, 1u);
  EXPECT_GT(e.init_info().num_builds, e.init_info().num_ms_terminated +
                                          e.init_info().num_pmc_terminated);
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(IsMinimalTriangulation(g, r->triangulation.filled));
  EXPECT_GT(e.tier2_seconds(), 0.0);
}

TEST(TieredEnumTest, ExactModeMatchesOracleByteForByte) {
  // Tier 0 would rewrite the paper example (it has a simplicial vertex), so
  // this also checks that exact mode ignores decomposable_cost.
  Graph g = testutil::PaperExampleGraph();
  WidthCost width;
  TierOptions t = ExactTier();
  t.decomposable_cost = true;
  TieredEnumerator tiered(g, width, CostComposition::kMax, {}, {}, t);
  EXPECT_EQ(tiered.tier(), SolveTier::kExact);
  EXPECT_EQ(tiered.preprocess_info().vertices_removed, 0);
  ExpectSameStream(Oracle(g, width, CostComposition::kMax), &tiered,
                   "paper example");
}

// Disjoint unions of 3-5 components: the product merge is where the
// successor rule matters. Exact mode must emit the oracle's stream
// byte-for-byte, and no fill set may repeat.
Graph DisjointUnion(const std::vector<Graph>& parts) {
  int n = 0;
  for (const Graph& p : parts) n += p.NumVertices();
  Graph g(n);
  int offset = 0;
  for (const Graph& p : parts) {
    for (const auto& [u, v] : p.Edges()) g.AddEdge(u + offset, v + offset);
    offset += p.NumVertices();
  }
  return g;
}

std::vector<Graph> DisjointUnionCorpus() {
  using workloads::ConnectedErdosRenyi;
  using workloads::Cycle;
  std::vector<Graph> corpus;
  corpus.push_back(DisjointUnion({Cycle(4), Cycle(5), Cycle(6)}));
  corpus.push_back(DisjointUnion({Cycle(4), Cycle(4), Cycle(4), Cycle(4)}));
  corpus.push_back(
      DisjointUnion({Cycle(5), Cycle(4), Cycle(5), Cycle(4), Cycle(4)}));
  corpus.push_back(DisjointUnion({ConnectedErdosRenyi(7, 0.4, 1),
                                  ConnectedErdosRenyi(6, 0.4, 2), Cycle(5)}));
  corpus.push_back(DisjointUnion({ConnectedErdosRenyi(6, 0.45, 3), Cycle(6),
                                  ConnectedErdosRenyi(7, 0.35, 4), Cycle(4)}));
  return corpus;
}

TEST(TieredEnumTest, ExactModeDisjointUnionsMatchOracle) {
  WidthCost width;
  FillInCost fill;
  const std::vector<std::pair<const BagCost*, CostComposition>> costs = {
      {&width, CostComposition::kMax}, {&fill, CostComposition::kSum}};
  const std::vector<Graph> corpus = DisjointUnionCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Graph& g = corpus[i];
    for (const auto& [cost, composition] : costs) {
      const std::string label =
          "graph " + std::to_string(i) + " " + cost->Name();
      TieredEnumerator e(g, *cost, composition, {}, {}, ExactTier());
      ASSERT_TRUE(e.init_ok()) << label;
      std::vector<Triangulation> got;
      ExpectSameStream(Oracle(g, *cost, composition), &e, label, &got);

      std::set<FillSet> fills;
      for (const Triangulation& t : got) {
        EXPECT_TRUE(fills.insert(testutil::FillKey(g, t.filled)).second)
            << label;
      }
      EXPECT_GE(fills.size(), 8u) << label;
    }
  }
}

TEST(TieredEnumTest, ExactModeBuildFailureStopsTheStream) {
  // A separator cap below C6's nine minimal separators: the second
  // component's build gives up and exact mode has no fallback.
  Graph g = MakeGraph(9, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                          {7, 8}, {8, 3}});
  ContextOptions options;
  options.separator_limits.max_results = 2;
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, options, {},
                     ExactTier());
  EXPECT_FALSE(e.init_ok());
  EXPECT_EQ(e.init_info().termination,
            ContextBuildInfo::Termination::kMsTerminated);
  EXPECT_STREQ(e.init_info().TerminationName(), "ms-terminated");
  EXPECT_EQ(e.init_info().num_builds, 2u);  // the path, then the cycle
  EXPECT_EQ(e.init_info().num_ms_terminated, 1u);
  EXPECT_EQ(e.tier2_seconds(), 0.0);
  EXPECT_FALSE(e.Next().has_value());

  // Auto mode falls back to Tier 2 on the same limits instead.
  TieredEnumerator fallback(g, width, CostComposition::kMax, options, {},
                            AutoOptions(false));
  EXPECT_TRUE(fallback.init_ok());
  EXPECT_EQ(fallback.tier(), SolveTier::kHeuristic);
  EXPECT_TRUE(fallback.Next().has_value());
}

TEST(TieredEnumTest, ChordalInputEmitsExactlyOneResult) {
  // Fully reduced by Tier 0: the unique minimal triangulation of a chordal
  // graph is the graph itself.
  Graph g = workloads::RandomTree(20, 4);
  FillInCost fill;
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {},
                     AutoOptions(true));
  EXPECT_EQ(e.tier(), SolveTier::kAtomExact);
  EXPECT_EQ(e.preprocess_info().vertices_removed, 20);
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->triangulation.cost, 0);  // no fill
  EXPECT_EQ(r->triangulation.filled.NumEdges(), g.NumEdges());
  EXPECT_FALSE(e.Next().has_value());
}

// The invariants of a glued result, checked against the whole-graph
// rebuild it replaces: its bags are the maximal cliques of its filled graph
// and form a proper clique tree with one root per connected component, its
// separators are the filled graph's minimal separators, and its cost is the
// cost of its own bags.
void ExpectGluedResultIsTheRebuild(const Graph& g, const BagCost& cost,
                                   const Triangulation& t,
                                   const std::string& label) {
  std::vector<VertexSet> bags = t.bags;
  std::sort(bags.begin(), bags.end());
  std::vector<VertexSet> cliques = MaximalCliquesOfChordal(t.filled);
  std::sort(cliques.begin(), cliques.end());
  EXPECT_EQ(bags, cliques) << label;
  EXPECT_TRUE(CliqueTreeOf(t).IsProperFor(g)) << label;
  EXPECT_EQ(t.separators, MinimalSeparatorsOfChordal(t.filled)) << label;
  EXPECT_EQ(t.cost, cost.Evaluate(g, t.bags)) << label;
  ASSERT_EQ(t.parent.size(), t.bags.size()) << label;
  EXPECT_EQ(std::count(t.parent.begin(), t.parent.end(), -1),
            static_cast<long>(g.ConnectedComponents().size()))
      << label;

  const Triangulation rebuilt = TriangulationFromChordal(g, t.filled);
  std::vector<VertexSet> rebuilt_bags = rebuilt.bags;
  std::sort(rebuilt_bags.begin(), rebuilt_bags.end());
  EXPECT_EQ(bags, rebuilt_bags) << label;
  EXPECT_EQ(t.separators, rebuilt.separators) << label;
  EXPECT_EQ(t.cost, cost.Evaluate(g, rebuilt.bags)) << label;
  EXPECT_EQ(t.FillEdgesSorted(g), rebuilt.FillEdgesSorted(g)) << label;
}

void ExpectGluedStream(const Graph& g, const BagCost& cost,
                       CostComposition composition, size_t limit,
                       const std::string& label) {
  TieredEnumerator e(g, cost, composition, {}, {}, AutoOptions(true));
  size_t count = 0;
  while (count < limit) {
    auto r = e.Next();
    if (!r.has_value()) break;
    ExpectGluedResultIsTheRebuild(
        g, cost, r->triangulation,
        label + " " + cost.Name() + " #" + std::to_string(count));
    ++count;
  }
  EXPECT_GE(count, 1u) << label;
}

// A chain of k×3 grid atoms (k = 3, 4, 3, ...) glued alternately on a cut
// vertex and on an edge, with pendant vertices, a pendant path and a
// pendant triangle: the shape of a huge-atoms input, small enough to test.
Graph GridAtomChain(int blocks) {
  std::vector<std::pair<int, int>> edges;
  int n = 0;
  std::vector<int> prev;
  for (int b = 0; b < blocks; ++b) {
    const int rows = 3 + b % 2;
    std::vector<int> id(rows * 3, -1);
    if (b % 2 == 1) {
      id[0] = prev.back();  // a cut vertex
    } else if (b > 0) {
      id[0] = prev[prev.size() - 2];  // the previous block's last edge
      id[1] = prev.back();
    }
    for (int& v : id) {
      if (v < 0) v = n++;
    }
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < 3; ++c) {
        if (c + 1 < 3) edges.emplace_back(id[r * 3 + c], id[r * 3 + c + 1]);
        if (r + 1 < rows) edges.emplace_back(id[r * 3 + c], id[r * 3 + c + 3]);
      }
    }
    prev = std::move(id);
  }
  const int core = n;
  for (int v = 0; v < core; v += 5) edges.emplace_back(v, n++);
  edges.emplace_back(core - 1, n);  // a pendant path of two vertices
  edges.emplace_back(n, n + 1);
  n += 2;
  edges.emplace_back(core / 2, n);  // a pendant triangle
  edges.emplace_back(core / 2, n + 1);
  edges.emplace_back(n, n + 1);
  n += 2;
  Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

TEST(TieredEnumTest, GluedResultsEqualTheRebuildOnTheCorpus) {
  WidthCost width;
  FillInCost fill;
  const std::vector<Graph> corpus = DifferentialCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string label = "graph " + std::to_string(i);
    ExpectGluedStream(corpus[i], width, CostComposition::kMax, kExhaustCap,
                      label);
    ExpectGluedStream(corpus[i], fill, CostComposition::kSum, kExhaustCap,
                      label);
  }
}

TEST(TieredEnumTest, GluedResultsEqualTheRebuildOnAnAtomChain) {
  const Graph g = GridAtomChain(4);
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                     AutoOptions(true));
  EXPECT_EQ(e.tier(), SolveTier::kAtomExact);
  EXPECT_EQ(e.preprocess_info().num_atoms, 4);
  EXPECT_GE(e.preprocess_info().vertices_removed, 10);
  ExpectGluedStream(g, width, CostComposition::kMax, 200, "atom chain");
  FillInCost fill;
  ExpectGluedStream(g, fill, CostComposition::kSum, 200, "atom chain");
}

TEST(TieredEnumTest, GluedResultsEqualTheRebuildOnAForest) {
  const Graph g = DisjointUnion({workloads::RandomTree(9, 1), Graph(1),
                                 workloads::RandomTree(6, 2), Graph(2),
                                 workloads::Path(3)});
  WidthCost width;
  ExpectGluedStream(g, width, CostComposition::kMax, 2, "forest");
  FillInCost fill;
  ExpectGluedStream(g, fill, CostComposition::kSum, 2, "forest");
}

// Two random connected graphs glued on a cut vertex, with pendants and a
// pendant triangle: Tier 0 both eliminates vertices and splits atoms.
Graph SeededLiftedGraph(uint64_t seed) {
  const Graph a = workloads::ConnectedErdosRenyi(7, 0.4, seed);
  const Graph b = workloads::ConnectedErdosRenyi(6, 0.45, seed + 100);
  const int core = a.NumVertices() + b.NumVertices() - 1;
  Graph g(core + core / 2 + 2);
  for (const auto& [u, v] : a.Edges()) g.AddEdge(u, v);
  // b's vertex 0 is a's vertex 0; b's others follow a's.
  auto in_b = [&](int v) { return v == 0 ? 0 : a.NumVertices() + v - 1; };
  for (const auto& [u, v] : b.Edges()) g.AddEdge(in_b(u), in_b(v));
  int next = core;
  for (int v = 1; v < core; v += 2) g.AddEdge(v, next++);
  g.AddEdge(2, next);
  g.AddEdge(2, next + 1);
  g.AddEdge(next, next + 1);
  return g;
}

// NextGlued and Next in lockstep on two enumerators: the glued tree is the
// dense result's clique tree, with the same cost, width, fill count and bag
// count, the same .td text, and the dense result is a proper tree
// decomposition of a minimal triangulation.
void ExpectGluedMatchesDense(const Graph& g, const BagCost& cost,
                             CostComposition composition,
                             const TierOptions& tier, size_t limit,
                             const std::string& label) {
  TieredEnumerator glued(g, cost, composition, {}, {}, tier);
  TieredEnumerator dense(g, cost, composition, {}, {}, tier);
  size_t count = 0;
  for (; count < limit; ++count) {
    const std::string at = label + " #" + std::to_string(count);
    const GluedTree* t = glued.NextGlued();
    std::optional<TieredResult> r = dense.Next();
    ASSERT_EQ(t != nullptr, r.has_value()) << at;
    if (t == nullptr) break;
    const Triangulation& d = r->triangulation;
    EXPECT_EQ(t->tier, r->tier) << at;
    EXPECT_EQ(t->cost, d.cost) << at;
    EXPECT_EQ(t->Width(), d.Width()) << at;
    EXPECT_EQ(t->fill, d.FillIn(g)) << at;
    ASSERT_EQ(t->bags.size(), d.bags.size()) << at;
    EXPECT_EQ(t->parent, d.parent) << at;
    for (size_t i = 0; i < d.bags.size(); ++i) {
      const std::vector<int> members(t->members.begin() + t->bags[i].begin,
                                     t->members.begin() + t->bags[i].end);
      EXPECT_EQ(members, d.bags[i].ToVector()) << at << " bag " << i;
    }
    std::ostringstream glued_td, dense_td;
    WritePaceTd(t->members, t->bags, t->Edges(), g.NumVertices(), glued_td);
    WritePaceTd(CliqueTreeOf(d), g.NumVertices(), dense_td);
    EXPECT_EQ(glued_td.str(), dense_td.str()) << at;
    EXPECT_TRUE(CliqueTreeOf(d).IsProperFor(g)) << at;
    EXPECT_TRUE(IsMinimalTriangulation(g, d.filled)) << at;
  }
  EXPECT_GE(count, 1u) << label;
}

TEST(TieredEnumTest, GluedTreeMatchesTheDenseResult) {
  std::vector<Graph> corpus = DifferentialCorpus();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    corpus.push_back(SeededLiftedGraph(seed));
  }
  corpus.push_back(GridAtomChain(3));
  WidthCost width;
  FillInCost fill;
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (const bool exact : {false, true}) {
      const TierOptions tier = exact ? ExactTier() : AutoOptions(true);
      const std::string label = "graph " + std::to_string(i) +
                                (exact ? " exact " : " auto ");
      ExpectGluedMatchesDense(corpus[i], width, CostComposition::kMax, tier,
                              300, label + "width");
      ExpectGluedMatchesDense(corpus[i], fill, CostComposition::kSum, tier,
                              300, label + "fill");
    }
  }
}

// Trivial graphs far too large for a whole-graph rebuild per result: one
// result, a bag per tree edge or per vertex, no fill.
TEST(TieredEnumTest, LargeTreeAndEdgelessGraphGlueStructurally) {
  FillInCost fill;
  const Graph tree = workloads::RandomTree(4096, 11);
  const Graph edgeless(5000);
  for (const Graph* g : {&tree, &edgeless}) {
    const int n = g->NumVertices();
    TieredEnumerator e(*g, fill, CostComposition::kSum, {}, {},
                       AutoOptions(true));
    auto r = e.Next();
    ASSERT_TRUE(r.has_value()) << "n=" << n;
    const Triangulation& t = r->triangulation;
    EXPECT_EQ(t.bags.size(),
              static_cast<size_t>(g->NumEdges() > 0 ? n - 1 : n));
    EXPECT_EQ(t.FillIn(*g), 0) << "n=" << n;
    EXPECT_EQ(t.cost, 0) << "n=" << n;
    EXPECT_FALSE(e.Next().has_value()) << "n=" << n;
  }
}

}  // namespace
}  // namespace mintri
