// Differential layer for the incremental MinTriangSolver: every repaired
// solve must be byte-identical (cost, bags, clique-tree structure,
// separators, filled graph) to a from-scratch MinTriang over ConstrainedCost
// with the same [I, X] — across randomized constraint walks on the family
// corpus, bounded-width contexts, and the repeat/no-op delta edge cases.

#include "triang/min_triang_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cost/constrained_cost.h"
#include "cost/standard_costs.h"
#include "test_util.h"
#include "triang/min_triang.h"
#include "util/rng.h"
#include "workloads/families.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

struct CorpusGraph {
  std::string name;
  TriangulationContext ctx;
};

// Family-corpus contexts with n <= 40 that initialize quickly (at most two
// graphs per family, so the walk stays CI-sized).
const std::vector<CorpusGraph>& Corpus() {
  static const std::vector<CorpusGraph>* corpus = [] {
    auto* out = new std::vector<CorpusGraph>;
    ContextOptions options;
    options.separator_limits.max_results = 20000;
    options.separator_limits.time_limit_seconds = 3.0;
    options.pmc_limits.time_limit_seconds = 3.0;
    for (const workloads::DatasetFamily& family : workloads::AllFamilies()) {
      int used = 0;
      for (const workloads::DatasetGraph& dg : family.graphs) {
        if (used >= 2) break;
        if (dg.graph.NumVertices() < 4 || dg.graph.NumVertices() > 40 ||
            !dg.graph.IsConnected()) {
          continue;
        }
        auto ctx = TriangulationContext::Build(dg.graph, options);
        if (!ctx.has_value()) continue;
        ++used;
        out->push_back({family.name + "/" + dg.name, std::move(*ctx)});
      }
    }
    return out;
  }();
  return *corpus;
}

void ExpectIdentical(const std::optional<Triangulation>& incremental,
                     const std::optional<Triangulation>& full,
                     const std::string& where) {
  ASSERT_EQ(incremental.has_value(), full.has_value()) << where;
  if (!incremental.has_value()) return;
  EXPECT_EQ(incremental->cost, full->cost) << where;
  EXPECT_EQ(incremental->bags, full->bags) << where;
  EXPECT_EQ(incremental->parent, full->parent) << where;
  EXPECT_EQ(incremental->separators, full->separators) << where;
  EXPECT_TRUE(incremental->filled == full->filled) << where;
}

// One walk step: nudges [I, X] by a few separators (the Lawler–Murty access
// pattern, plus removals and larger jumps the enumerator never makes).
void MutateConstraints(Rng& rng, int num_seps, std::vector<int>* include,
                       std::vector<int>* exclude) {
  auto contains = [](const std::vector<int>& v, int id) {
    return std::binary_search(v.begin(), v.end(), id);
  };
  auto insert = [](std::vector<int>* v, int id) {
    v->insert(std::upper_bound(v->begin(), v->end(), id), id);
  };
  const int ops = rng.NextInt(1, 3);
  for (int op = 0; op < ops && num_seps > 0; ++op) {
    const int id = rng.NextInt(0, num_seps - 1);
    switch (rng.NextInt(0, 2)) {
      case 0:
        if (!contains(*include, id) && !contains(*exclude, id)) {
          insert(include, id);
        }
        break;
      case 1:
        if (!contains(*include, id) && !contains(*exclude, id)) {
          insert(exclude, id);
        }
        break;
      default: {
        std::vector<int>& v = rng.NextBool(0.5) ? *include : *exclude;
        if (!v.empty()) {
          v.erase(v.begin() + rng.NextInt(0, static_cast<int>(v.size()) - 1));
        }
        break;
      }
    }
  }
}

// Random walk over constraint sets: solves incrementally and cross-checks
// against the full DP at every step. A step's repair re-evaluates each
// candidate at most once, so it never evaluates more than a full pass, and
// every block optimum is re-picked through the segment tree.
void DifferentialWalk(const TriangulationContext& ctx, const BagCost& cost,
                      const std::string& name, uint64_t seed, int steps) {
  MinTriangSolver solver(ctx, cost);
  Rng rng(seed);
  const int num_seps = static_cast<int>(ctx.minimal_separators().size());
  const long long full_pass =
      static_cast<long long>(solver.num_candidates_total());
  std::vector<int> include, exclude;
  for (int step = 0; step < steps; ++step) {
    MutateConstraints(rng, num_seps, &include, &exclude);
    const std::string where = name + " step " + std::to_string(step);
    const long long evals_before = solver.num_candidate_evals();
    std::vector<VertexSet> include_sets, exclude_sets;
    for (int id : include) {
      include_sets.push_back(ctx.minimal_separators()[id]);
    }
    for (int id : exclude) {
      exclude_sets.push_back(ctx.minimal_separators()[id]);
    }
    ConstrainedCost constrained(cost, std::move(include_sets),
                                std::move(exclude_sets));
    ExpectIdentical(solver.Solve(include, exclude), MinTriang(ctx, constrained),
                    where);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_LE(solver.num_candidate_evals() - evals_before, full_pass) << where;
  }
  EXPECT_GT(solver.num_range_queries(), 0) << name;
}

TEST(MinTriangSolverTest, DifferentialOnFamilyCorpus) {
  ASSERT_FALSE(Corpus().empty());
  WidthCost width;
  FillInCost fill;
  for (const CorpusGraph& cg : Corpus()) {
    DifferentialWalk(cg.ctx, width, cg.name + "/width", 0x5eed0 + 1, 10);
    DifferentialWalk(cg.ctx, fill, cg.name + "/fill", 0x5eed0 + 2, 10);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MinTriangSolverTest, DifferentialOnBoundedWidthContexts) {
  // Bounded contexts have unusable PMCs and infeasible blocks — the repair
  // must keep ∞ values and missing candidates exactly in sync with the
  // full pass.
  WidthCost width;
  for (int seed = 0; seed < 6; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(12, 0.25, 42000 + seed);
    for (int bound = 2; bound <= 4; ++bound) {
      ContextOptions options;
      options.width_bound = bound;
      auto ctx = TriangulationContext::Build(g, options);
      ASSERT_TRUE(ctx.has_value());
      if (ctx->minimal_separators().empty()) continue;
      DifferentialWalk(*ctx, width,
                       "bounded seed " + std::to_string(seed) + " b=" +
                           std::to_string(bound),
                       0xb0b0 + seed, 8);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MinTriangSolverTest, LawlerMurtySiblingDeltas) {
  // The exact access pattern RankedTriang issues: partitions
  // [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}] over the separators of the optimum.
  Graph g = workloads::Grid(3, 3);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  FillInCost fill;
  MinTriangSolver solver(*ctx, fill);
  auto first = solver.Solve({}, {});
  ASSERT_TRUE(first.has_value());
  std::vector<int> h_seps;
  for (const VertexSet& s : first->separators) {
    h_seps.push_back(ctx->SeparatorId(s));
  }
  std::sort(h_seps.begin(), h_seps.end());
  std::vector<int> include, exclude;
  for (size_t i = 0; i < h_seps.size(); ++i) {
    exclude.assign({h_seps[i]});
    std::vector<VertexSet> include_sets, exclude_sets;
    for (int id : include) {
      include_sets.push_back(ctx->minimal_separators()[id]);
    }
    exclude_sets.push_back(ctx->minimal_separators()[h_seps[i]]);
    ConstrainedCost constrained(fill, std::move(include_sets),
                                std::move(exclude_sets));
    ExpectIdentical(solver.Solve(include, exclude),
                    MinTriang(*ctx, constrained),
                    "partition " + std::to_string(i));
    include.insert(std::upper_bound(include.begin(), include.end(), h_seps[i]),
                   h_seps[i]);
  }
}

TEST(MinTriangSolverTest, NoOpDeltaEvaluatesNothing) {
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  auto a = solver.Solve({}, {});
  ASSERT_TRUE(a.has_value());
  const long long after_full = solver.num_candidate_evals();
  EXPECT_EQ(after_full, static_cast<long long>(solver.num_candidates_total()));
  // Same constraints again: zero candidate work, same answer.
  auto b = solver.Solve({}, {});
  EXPECT_EQ(solver.num_candidate_evals(), after_full);
  ExpectIdentical(a, b, "repeat solve");
}

TEST(MinTriangSolverTest, SiblingExpansionIsCheaperThanOneFullPass) {
  // The workload the solver exists for: after the full pass, the entire
  // k-partition Lawler–Murty expansion over the optimum's separators must
  // cost less base-Combine work than a single additional full pass (the
  // pre-refactor enumerator paid k full passes here).
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  auto first = solver.Solve({}, {});
  ASSERT_TRUE(first.has_value());
  const long long full_pass = solver.num_combine_calls();
  EXPECT_EQ(full_pass, static_cast<long long>(solver.num_candidates_total()));

  std::vector<int> h_seps;
  for (const VertexSet& s : first->separators) {
    h_seps.push_back(ctx->SeparatorId(s));
  }
  std::sort(h_seps.begin(), h_seps.end());
  ASSERT_GT(h_seps.size(), 3u);
  std::vector<int> include, exclude;
  for (size_t i = 0; i < h_seps.size(); ++i) {
    exclude.assign({h_seps[i]});
    solver.Solve(include, exclude);
    include.insert(std::upper_bound(include.begin(), include.end(), h_seps[i]),
                   h_seps[i]);
  }
  const long long expansion = solver.num_combine_calls() - full_pass;
  EXPECT_LT(expansion, full_pass)
      << h_seps.size() << " sibling repairs cost " << expansion
      << " Combine calls vs " << full_pass << " for one full pass";
}

// The walks below use their own seeds, for more steps than the
// differential tests above: more coverage of the per-step evaluation bound.
TEST(MinTriangSolverTest, RepairStepsNeverOutworkAFullPass) {
  ASSERT_FALSE(Corpus().empty());
  WidthCost width;
  FillInCost fill;
  for (const CorpusGraph& cg : Corpus()) {
    DifferentialWalk(cg.ctx, width, cg.name + "/width", 0xcafe + 1, 12);
    DifferentialWalk(cg.ctx, fill, cg.name + "/fill", 0xcafe + 2, 12);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MinTriangSolverTest, RepairStepsNeverOutworkAFullPassOnBoundedWidth) {
  WidthCost width;
  for (int seed = 0; seed < 4; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(12, 0.25, 43000 + seed);
    for (int bound = 2; bound <= 4; ++bound) {
      ContextOptions options;
      options.width_bound = bound;
      auto ctx = TriangulationContext::Build(g, options);
      ASSERT_TRUE(ctx.has_value());
      if (ctx->minimal_separators().empty()) continue;
      DifferentialWalk(*ctx, width,
                       "bounded seed " + std::to_string(seed) + " b=" +
                           std::to_string(bound),
                       0xbead + seed, 8);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MinTriangSolverTest, ExpiredDeadlineTruncatesAndRecovers) {
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  const Deadline expired(0.0);
  solver.set_deadline(&expired);
  EXPECT_FALSE(solver.Solve({}, {}).has_value());
  EXPECT_TRUE(solver.truncated());
  // Lifting the deadline must fully recover: the truncated call committed
  // no state, so the next solve is a clean full pass.
  solver.set_deadline(nullptr);
  auto recovered = solver.Solve({}, {});
  EXPECT_FALSE(solver.truncated());
  MinTriangSolver fresh(*ctx, width);
  ExpectIdentical(recovered, fresh.Solve({}, {}), "recovered vs fresh");
}

TEST(MinTriangSolverTest, TruncatedRepairDoesNotCorruptLaterSolves) {
  // Expire the deadline between incremental repairs: the interrupted delta
  // must leave the blocked counters and tables consistent, so every answer
  // after the deadline lifts still matches the from-scratch DP.
  Graph g = workloads::Grid(3, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  ASSERT_GE(ctx->minimal_separators().size(), 2u);
  FillInCost fill;
  MinTriangSolver solver(*ctx, fill);
  ASSERT_TRUE(solver.Solve({}, {}).has_value());

  const Deadline expired(0.0);
  solver.set_deadline(&expired);
  EXPECT_FALSE(solver.Solve({0}, {}).has_value());
  EXPECT_TRUE(solver.truncated());
  solver.set_deadline(nullptr);

  auto check = [&](const std::vector<int>& include,
                   const std::vector<int>& exclude, const std::string& where) {
    std::vector<VertexSet> include_sets, exclude_sets;
    for (int id : include) {
      include_sets.push_back(ctx->minimal_separators()[id]);
    }
    for (int id : exclude) {
      exclude_sets.push_back(ctx->minimal_separators()[id]);
    }
    ConstrainedCost constrained(fill, std::move(include_sets),
                                std::move(exclude_sets));
    ExpectIdentical(solver.Solve(include, exclude),
                    MinTriang(*ctx, constrained), where);
  };
  check({0}, {}, "the interrupted delta, retried");
  EXPECT_FALSE(solver.truncated());
  check({0}, {1}, "a further incremental step");
  check({}, {}, "back to unconstrained");
}

}  // namespace
}  // namespace mintri
