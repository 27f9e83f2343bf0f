#include "enumeration/ranked_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chordal/clique_tree.h"
#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

TriangulationContext BuildCtx(const Graph& g) {
  auto ctx = TriangulationContext::Build(g);
  EXPECT_TRUE(ctx.has_value());
  return std::move(*ctx);
}

std::vector<Triangulation> Drain(RankedTriangulationEnumerator& e,
                                 size_t cap = 100000) {
  std::vector<Triangulation> out;
  while (out.size() < cap) {
    auto t = e.Next();
    if (!t.has_value()) break;
    out.push_back(std::move(*t));
  }
  return out;
}

TEST(RankedEnumTest, PaperExampleEnumeratesBothTriangulations) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].Width(), 2);  // H2 first (width 2)
  EXPECT_EQ(all[1].Width(), 3);  // then H1 (width 3)
  for (const auto& t : all) {
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
  }
}

TEST(RankedEnumTest, FourCycleHasTwoTriangulations) {
  // Regression for the Figure 4 off-by-one: with the loop running to k-1
  // only, C4's second triangulation would never be generated (k = 1 at the
  // first pop).
  Graph g = workloads::Cycle(4);
  TriangulationContext ctx = BuildCtx(g);
  FillInCost fill;
  RankedTriangulationEnumerator e(ctx, fill);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].FillIn(g), 1);
  EXPECT_EQ(all[1].FillIn(g), 1);
  EXPECT_NE(all[0].FillEdgesSorted(g), all[1].FillEdgesSorted(g));
}

class RankedEnumPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RankedEnumPropertyTest, CompleteDuplicateFreeAndSorted) {
  auto [n, seed] = GetParam();
  double p = 0.2 + 0.07 * (seed % 6);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 20000 + seed);
  TriangulationContext ctx = BuildCtx(g);

  for (int which_cost = 0; which_cost < 2; ++which_cost) {
    WidthCost width;
    FillInCost fill;
    const BagCost& cost =
        which_cost == 0 ? static_cast<const BagCost&>(width)
                        : static_cast<const BagCost&>(fill);
    RankedTriangulationEnumerator e(ctx, cost);
    auto all = Drain(e);

    // Sorted by cost.
    for (size_t i = 1; i < all.size(); ++i) {
      EXPECT_LE(all[i - 1].cost, all[i].cost) << cost.Name();
    }
    // Each result is a minimal triangulation with a consistent cost.
    std::set<testutil::FillSet> produced;
    for (const auto& t : all) {
      EXPECT_TRUE(IsMinimalTriangulation(g, t.filled)) << cost.Name();
      EXPECT_EQ(t.cost, cost.Evaluate(g, t.bags)) << cost.Name();
      EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second)
          << "duplicate result under " << cost.Name();
    }
    // The result set is exactly the Parra–Scheffler brute-force set.
    EXPECT_EQ(produced, testutil::BruteForceMinimalTriangulationFills(g))
        << "n=" << n << " seed=" << seed << " cost=" << cost.Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, RankedEnumPropertyTest,
    ::testing::Combine(::testing::Values(5, 6, 7, 8),
                       ::testing::Range(0, 8)));

TEST(RankedEnumTest, SeparatorSetsAreMaximalParallel) {
  // Theorem 2.5: MinSep(H) of every output is a maximal pairwise-parallel
  // set, and saturating it reproduces H.
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int checked = 0;
  while (checked < 25) {
    auto t = e.Next();
    if (!t.has_value()) break;
    EXPECT_TRUE(IsMaximalPairwiseParallel(g, t->separators,
                                          ctx.minimal_separators()));
    Graph h = g;
    for (const VertexSet& s : t->separators) h.SaturateSet(s);
    EXPECT_EQ(h, t->filled);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(RankedEnumTest, ChordalGraphYieldsExactlyItself) {
  Graph g = workloads::Path(5);
  TriangulationContext ctx = BuildCtx(g);
  FillInCost fill;
  RankedTriangulationEnumerator e(ctx, fill);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].filled, g);
}

TEST(RankedEnumTest, TreeDecompositionsAreProper) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int count = 0;
  CostValue last = -kInfiniteCost;
  while (auto t = e.Next()) {
    EXPECT_TRUE(CliqueTreeOf(*t).IsProperFor(g));
    EXPECT_LE(last, t->cost);
    last = t->cost;
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(RankedEnumTest, OrderedAndSetEqualWithCkk) {
  // Ranked enumeration must produce nondecreasing κ and, drained to
  // exhaustion, exactly the set the order-free CKK baseline produces — the
  // two pipelines share no code above the triangulation type.
  std::vector<Graph> graphs = {workloads::Grid(3, 3), workloads::Cycle(7)};
  for (int seed = 0; seed < 4; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(9, 0.3, 71000 + seed));
  }
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    TriangulationContext ctx = BuildCtx(g);
    FillInCost fill;
    RankedTriangulationEnumerator ranked(ctx, fill);
    std::set<testutil::FillSet> ranked_set;
    CostValue last = -kInfiniteCost;
    while (auto t = ranked.Next()) {
      EXPECT_LE(last, t->cost) << "graph " << gi;
      last = t->cost;
      EXPECT_TRUE(ranked_set.insert(t->FillEdgesSorted(g)).second)
          << "duplicate ranked result, graph " << gi;
    }
    CkkEnumerator ckk(g);
    std::set<testutil::FillSet> ckk_set;
    while (auto t = ckk.Next()) {
      EXPECT_TRUE(ckk_set.insert(t->FillEdgesSorted(g)).second)
          << "duplicate CKK result, graph " << gi;
    }
    EXPECT_EQ(ranked_set, ckk_set) << "graph " << gi;
  }
}

TEST(RankedEnumTest, SolverRepairsAreCheaperThanFullPasses) {
  // The incremental solver is the point of the refactor: across a full
  // enumeration the per-call candidate work must stay well below one full
  // DP pass per optimizer call.
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int drained = 0;
  while (drained < 200 && e.Next().has_value()) ++drained;
  ASSERT_GT(drained, 10);
  ASSERT_GT(e.num_optimizer_calls(), 1);
  const size_t full_pass = static_cast<size_t>(ctx.num_candidates());
  // The breadth measure (touched candidates, mostly cheap constraint
  // short-circuits) must amortize below a full pass; the expensive base
  // Combine calls — where the DP time actually goes — must amortize far
  // below one (measured ~7% on this graph, ~2% on larger grids).
  const double calls = static_cast<double>(e.num_optimizer_calls());
  const double avg_evals = e.num_candidate_evals() / calls;
  const double avg_combines = e.num_combine_calls() / calls;
  EXPECT_LT(avg_evals, static_cast<double>(full_pass))
      << "repair breadth not amortizing";
  EXPECT_LT(avg_combines, static_cast<double>(full_pass) / 4)
      << "incremental repair is not amortizing: " << avg_combines
      << " Combine calls/solve vs " << full_pass << " per full pass";
}

TEST(RankedEnumTest, OptimizerCallCountGrowsLinearly) {
  // Lawler–Murty invariant: at most |MinSep(H)|+1 optimizer calls per
  // result (polynomial delay bookkeeping for the harness).
  Graph g = workloads::Cycle(6);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  auto all = Drain(e);
  EXPECT_GT(all.size(), 1u);
  long long bound = 1;
  for (const auto& t : all) {
    bound += static_cast<long long>(t.separators.size());
  }
  EXPECT_LE(e.num_optimizer_calls(), bound);
}

TEST(RankedEnumTest, PartitionsAreSolvedOnlyWhenTheyReachTheTop) {
  // Lazy Lawler–Murty: a partition is solved when it reaches the top of the
  // queue, not when it is created, so most of them never cost a solve
  // before the caller stops (measured ~1.3 calls per result here, against
  // ~6.5 when every partition is solved on creation).
  Graph g = workloads::Grid(5, 5);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  const std::vector<Triangulation> results = Drain(e, 500);
  ASSERT_EQ(results.size(), 500u);
  EXPECT_LE(e.num_optimizer_calls(),
            2 * static_cast<long long>(results.size()));
}

TEST(RankedEnumTest, RepairsSkipUpdatesThatCannotChangeAnything) {
  // A repair skips point updates that cannot change a block optimum: a
  // re-evaluation that returns the leaf's value, a cascade into a host
  // candidate that a constraint pins at ∞, and setting a newly blocked
  // leaf to ∞ before it tops its tree. None of these changes which
  // candidates are evaluated. On the first 300 results, the repair that
  // updated a leaf on every re-evaluation, cascade and new block made
  // 352,868 point updates under width and 4,291,108 under fill, over
  // 173,231 and 1,241,096 candidate evaluations (recorded with the solver
  // before these skips). The evaluations must stay exactly the same, and
  // the updates must fall to at most 0.6x (81,333 and 1,240,623 now).
  WidthCost width;
  FillInCost fill;
  struct Run {
    const BagCost& cost;
    long long evals;
    long long updates_before;
  };
  const Run runs[] = {
      {width, 173231, 352868},
      {fill, 1241096, 4291108},
  };
  Graph g = workloads::Grid(5, 5);
  TriangulationContext ctx = BuildCtx(g);
  for (const Run& run : runs) {
    RankedTriangulationEnumerator e(ctx, run.cost);
    const std::string name = run.cost.Name();
    ASSERT_EQ(Drain(e, 300).size(), 300u) << name;
    EXPECT_EQ(e.num_candidate_evals(), run.evals) << name;
    EXPECT_LE(e.num_index_updates(), run.updates_before * 6 / 10) << name;
  }
}

TEST(RankedEnumTest, EveryPrefixMatchesTheBruteForceRanking) {
  // Whatever K a caller stops at, the first K costs of the stream are the
  // K smallest κ values over all minimal triangulations, and every κ level
  // the stream has finished holds exactly the brute-force triangulations
  // of that cost (order within a level is free).
  std::vector<Graph> graphs = {workloads::Cycle(8), workloads::Grid(3, 3)};
  for (int seed = 0; seed < 20; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(
        8 + seed % 3, 0.25 + 0.05 * (seed % 4), 52000 + seed));
  }
  WidthCost width;
  FillInCost fill;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    TriangulationContext ctx = BuildCtx(g);
    for (const BagCost* cost : {static_cast<const BagCost*>(&width),
                                static_cast<const BagCost*>(&fill)}) {
      const std::string where =
          "graph " + std::to_string(gi) + " " + cost->Name();
      std::map<CostValue, std::set<testutil::FillSet>> brute_levels;
      std::vector<CostValue> brute_costs;
      for (const testutil::FillSet& fills :
           testutil::BruteForceMinimalTriangulationFills(g)) {
        Graph h = g;
        for (const auto& [u, v] : fills) h.AddEdge(u, v);
        const CostValue k = cost->Evaluate(g, MaximalCliquesOfChordal(h));
        brute_levels[k].insert(fills);
        brute_costs.push_back(k);
      }
      std::sort(brute_costs.begin(), brute_costs.end());

      RankedTriangulationEnumerator e(ctx, *cost);
      std::map<CostValue, std::set<testutil::FillSet>> levels;
      size_t k = 0;
      while (auto t = e.Next()) {
        ASSERT_LT(k, brute_costs.size()) << where;
        EXPECT_EQ(t->cost, brute_costs[k]) << where << " K=" << k + 1;
        // A higher cost finishes the level below it.
        if (k > 0 && t->cost != brute_costs[k - 1]) {
          EXPECT_EQ(levels[brute_costs[k - 1]],
                    brute_levels[brute_costs[k - 1]])
              << where << " level " << brute_costs[k - 1];
        }
        levels[t->cost].insert(t->FillEdgesSorted(g));
        ++k;
      }
      EXPECT_EQ(k, brute_costs.size()) << where;
      EXPECT_EQ(levels, brute_levels) << where;
    }
  }
}

void ExpectSameStream(const std::vector<Triangulation>& a,
                      const std::vector<Triangulation>& b,
                      const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + " result " + std::to_string(i);
    EXPECT_EQ(a[i].cost, b[i].cost) << at;
    EXPECT_EQ(a[i].bags, b[i].bags) << at;
    EXPECT_EQ(a[i].parent, b[i].parent) << at;
    EXPECT_EQ(a[i].separators, b[i].separators) << at;
    EXPECT_TRUE(a[i].filled == b[i].filled) << at;
  }
}

TEST(RankedEnumTest, StreamIsByteIdenticalAcrossContextThreads) {
  // The ranked stream must not depend on how many threads built the
  // context: the solver's tables, and so the Lawler–Murty order, are a
  // function of the context alone.
  std::vector<Graph> graphs = {workloads::Grid(3, 3), workloads::Cycle(6)};
  for (int seed = 0; seed < 3; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(10, 0.3, 31000 + seed));
  }
  WidthCost width;
  FillInCost fill;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const BagCost& cost =
          which_cost == 0 ? static_cast<const BagCost&>(width)
                          : static_cast<const BagCost&>(fill);
      std::vector<Triangulation> reference;
      for (int threads : {1, 2}) {
        const std::string where = "graph " + std::to_string(gi) + " cost " +
                                  std::to_string(which_cost) + " t=" +
                                  std::to_string(threads);
        ContextOptions options;
        options.num_threads = threads;
        auto ctx = TriangulationContext::Build(graphs[gi], options);
        ASSERT_TRUE(ctx.has_value()) << where;
        RankedTriangulationEnumerator e(*ctx, cost);
        std::vector<Triangulation> stream = Drain(e, 200);
        if (reference.empty()) {
          reference = std::move(stream);
        } else {
          ExpectSameStream(stream, reference,
                           where + " vs serial-context stream");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(RankedEnumTest, ExpiredDeadlineEndsTheStreamTruthfully) {
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator full(ctx, width);
  const size_t total = Drain(full).size();
  ASSERT_GT(total, 1u);

  RankedTriangulationEnumerator e(ctx, width);
  const Deadline expired(0.0);
  e.SetDeadline(&expired);
  // The already-queued first result is still handed out, but the expansion
  // it would have spawned is cut short — the stream ends, flagged as
  // truncated rather than pretending exhaustion.
  auto first = e.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(e.truncated());
  EXPECT_FALSE(e.Next().has_value());
  EXPECT_TRUE(e.truncated());
}

}  // namespace
}  // namespace mintri
