// The application-cost pipeline end to end: hypergraph (hypertree/fhw) and
// inference (state-space) costs through the ranked stack, the memoized
// bag-score cache, and the uncoverable-bag sentinel regression. The
// differential layer cross-checks ranked enumeration under the application
// costs against the independent CKK baseline and against BagCost::Evaluate
// on every produced triangulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cost/cost_model_registry.h"
#include "enumeration/ckk.h"
#include "enumeration/tiered_enum.h"
#include "enumeration/tree_decomposition.h"
#include "hypergraph/edge_cover.h"
#include "hypergraph/hypergraph_io.h"
#include "inference/junction_tree.h"
#include "inference/model_io.h"
#include "test_util.h"
#include "workloads/inference_models.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

namespace mintri {
namespace {

using FillSet = std::vector<std::pair<int, int>>;

struct RankedResult {
  FillSet fill;
  CostValue cost;
};

bool ByFillSet(const RankedResult& a, const RankedResult& b) {
  return a.fill < b.fill;
}

// Every minimal triangulation of `instance.graph` under `cost_name`, via
// the ranked stack; checks the ranked order is nondecreasing and every
// reported cost matches Evaluate on the bags.
std::vector<RankedResult> ExhaustRanked(const CostModelInstance& instance,
                                        const std::string& cost_name,
                                        bool enable_cache) {
  std::string error;
  std::optional<CostModel> model =
      MakeCostModel(cost_name, instance, enable_cache, &error);
  EXPECT_TRUE(model.has_value()) << error;
  TieredEnumerator e(instance.graph, *model->cost, model->composition, {},
                     {}, testutil::ExactTier());
  EXPECT_TRUE(e.init_ok());
  std::vector<RankedResult> out;
  CostValue last = -kInfiniteCost;
  while (auto r = e.Next()) {
    const Triangulation& t = r->triangulation;
    EXPECT_GE(t.cost, last - 1e-9) << "ranked order must be nondecreasing";
    EXPECT_NEAR(t.cost, model->cost->Evaluate(instance.graph, t.bags), 1e-9);
    last = t.cost;
    out.push_back({t.FillEdgesSorted(instance.graph), t.cost});
  }
  return out;
}

// The same set via the CKK baseline (connected graphs only).
std::vector<RankedResult> ExhaustCkk(const CostModelInstance& instance,
                                     const std::string& cost_name) {
  std::string error;
  std::optional<CostModel> model =
      MakeCostModel(cost_name, instance, /*enable_cache=*/false, &error);
  EXPECT_TRUE(model.has_value()) << error;
  CkkEnumerator e(instance.graph, model->cost.get());
  std::vector<RankedResult> out;
  while (auto t = e.Next()) {
    out.push_back({t->FillEdgesSorted(instance.graph), t->cost});
  }
  return out;
}

void ExpectSameTriangulations(std::vector<RankedResult> a,
                              std::vector<RankedResult> b) {
  std::sort(a.begin(), a.end(), ByFillSet);
  std::sort(b.begin(), b.end(), ByFillSet);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fill, b[i].fill);
    EXPECT_NEAR(a[i].cost, b[i].cost, 1e-9);
  }
}

// A hypergraph instance whose primal graph is g: one binary hyperedge per
// graph edge plus a few random larger hyperedges (so integral and
// fractional covers genuinely differ).
CostModelInstance HypergraphInstanceOf(const Graph& g, uint64_t seed) {
  Hypergraph h(g.NumVertices());
  for (const auto& [u, v] : g.Edges()) {
    h.AddEdge(VertexSet::Of(g.NumVertices(), {u, v}));
  }
  // Deterministic extra edges over existing triangles keep the primal graph
  // unchanged.
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int t = 0; t < 2 * g.NumVertices(); ++t) {
    int a = static_cast<int>(next() % g.NumVertices());
    for (int b = 0; b < g.NumVertices(); ++b) {
      for (int c = b + 1; c < g.NumVertices(); ++c) {
        if (b != a && c != a && g.HasEdge(a, b) && g.HasEdge(a, c) &&
            g.HasEdge(b, c)) {
          h.AddEdge(VertexSet::Of(g.NumVertices(), {a, b, c}));
          t = 2 * g.NumVertices();  // one triangle per attempt round
        }
      }
    }
  }
  CostModelInstance instance;
  instance.name = "test";
  instance.graph = h.PrimalGraph();
  instance.hypergraph = std::move(h);
  return instance;
}

class AppCostDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// fhw/hypertree ranked enumeration vs. the independent CKK baseline on the
// small-graph corpus: exact same triangulation sets, same costs.
TEST_P(AppCostDifferentialTest, RankedMatchesCkkUnderEdgeCoverCosts) {
  auto [n, seed] = GetParam();
  Graph g = workloads::ConnectedErdosRenyi(n, 0.3, 5200 + 17 * seed);
  CostModelInstance instance = HypergraphInstanceOf(g, 99 + seed);
  for (const char* cost : {"hypertree", "fhw"}) {
    ExpectSameTriangulations(ExhaustRanked(instance, cost, true),
                             ExhaustCkk(instance, cost));
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGraphs, AppCostDifferentialTest,
                         ::testing::Combine(::testing::Values(8, 10, 12),
                                            ::testing::Range(0, 3)));

// Cache-on and cache-off runs must produce byte-identical ranked streams
// (same triangulations in the same order with the same costs), and the
// cache must actually hit.
TEST(BagScoreCacheTest, CacheOnEqualsCacheOffAndHits) {
  for (int q : {2, 5, 9}) {
    workloads::TpchQuery query = workloads::TpchQueryGraph(q);
    CostModelInstance instance;
    instance.name = "q" + std::to_string(q);
    Hypergraph h = workloads::TpchQueryHypergraph(query);
    instance.graph = h.PrimalGraph();
    instance.hypergraph = std::move(h);

    std::string error;
    std::optional<CostModel> cached =
        MakeCostModel("fhw", instance, true, &error);
    ASSERT_TRUE(cached.has_value()) << error;
    std::optional<CostModel> uncached =
        MakeCostModel("fhw", instance, false, &error);
    ASSERT_TRUE(uncached.has_value()) << error;
    ASSERT_NE(cached->cache, nullptr);
    EXPECT_EQ(uncached->cache, nullptr);

    TieredEnumerator e1(instance.graph, *cached->cost, cached->composition,
                        {}, {}, testutil::ExactTier());
    TieredEnumerator e2(instance.graph, *uncached->cost,
                        uncached->composition, {}, {}, testutil::ExactTier());
    while (true) {
      auto r1 = e1.Next();
      auto r2 = e2.Next();
      ASSERT_EQ(r1.has_value(), r2.has_value());
      if (!r1.has_value()) break;
      EXPECT_EQ(r1->triangulation.FillEdgesSorted(instance.graph),
                r2->triangulation.FillEdgesSorted(instance.graph));
      EXPECT_NEAR(r1->triangulation.cost, r2->triangulation.cost, 1e-12);
    }
    const BagScoreCache::Stats stats = cached->cache->stats();
    EXPECT_GT(stats.lookups, 0);
    EXPECT_GT(stats.hits, 0) << "ranked enumeration re-scores bags; the "
                                "cache must see repeats";
    EXPECT_GT(stats.HitRate(), 0.0);
  }
}

// Regression (sentinel → infinity): a bag containing a vertex in no
// hyperedge must score kInfiniteCost. The old code fed the raw -1 sentinel
// into WeightedWidthCost, making the invalid bag the *cheapest* one and the
// whole instance score -1 instead of infinity.
TEST(EdgeCoverSentinelTest, UncoverableBagScoresInfinity) {
  Hypergraph h(3);
  h.AddEdge(VertexSet::Of(3, {0, 1}));  // vertex 2 is uncovered
  EXPECT_EQ(HypertreeBagScore(h, VertexSet::Of(3, {2})), kInfiniteCost);
  EXPECT_EQ(FractionalEdgeCoverBagScore(h, VertexSet::Of(3, {2})),
            kInfiniteCost);
  EXPECT_EQ(HypertreeBagScore(h, VertexSet::Of(3, {0, 2})), kInfiniteCost);
  // Coverable bags stay finite.
  EXPECT_EQ(HypertreeBagScore(h, VertexSet::Of(3, {0, 1})), 1.0);

  auto cost = HypertreeWidthCost(h);
  Graph primal = h.PrimalGraph();
  EXPECT_EQ(cost->Evaluate(primal, {VertexSet::Of(3, {0, 1}),
                                    VertexSet::Of(3, {2})}),
            kInfiniteCost);
}

TEST(EdgeCoverSentinelTest, RankedStackReportsInfinityNotMinusOne) {
  Hypergraph h(3);
  h.AddEdge(VertexSet::Of(3, {0, 1}));
  CostModelInstance instance;
  instance.name = "uncoverable";
  instance.graph = h.PrimalGraph();  // edge 0-1 plus isolated vertex 2
  instance.hypergraph = std::move(h);
  std::string error;
  std::optional<CostModel> model =
      MakeCostModel("hypertree", instance, true, &error);
  ASSERT_TRUE(model.has_value()) << error;
  TieredEnumerator e(instance.graph, *model->cost, model->composition, {},
                     {}, testutil::ExactTier());
  ASSERT_TRUE(e.init_ok());
  // Every triangulation of the uncoverable component costs infinity, so the
  // DP finds no feasible solution and the ranked stream is empty. The old
  // code instead scored the invalid bag -1 — the *cheapest* — and happily
  // produced a finite-cost "best" triangulation (cost 1 here).
  EXPECT_FALSE(e.Next().has_value());
}

// state-space through the registry uses the model's real domain sizes, and
// the ranked cost is exactly the junction-tree table total that inference
// pays.
TEST(StateSpaceCostTest, RegistryUsesModelDomains) {
  GraphicalModel model = workloads::GridMrf(3, 3, 901);
  CostModelInstance instance;
  instance.name = "grid3x3";
  instance.graph = model.MarkovGraph();
  instance.model = model;
  std::string error;
  std::optional<CostModel> cm =
      MakeCostModel("state-space", instance, true, &error);
  ASSERT_TRUE(cm.has_value()) << error;
  TieredEnumerator e(instance.graph, *cm->cost, cm->composition, {}, {},
                     testutil::ExactTier());
  ASSERT_TRUE(e.init_ok());
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  const Triangulation& t = r->triangulation;
  TotalStateSpaceCost reference(model.DomainsAsWeights());
  EXPECT_NEAR(t.cost, reference.Evaluate(instance.graph, t.bags), 1e-9);

  JunctionTreeInference inference(model.domains, model.factors);
  auto run = inference.Run(CliqueTreeOf(t));
  ASSERT_TRUE(run.has_value());
  EXPECT_FALSE(run->degenerate);
  EXPECT_NEAR(run->total_table_entries, t.cost, 1e-9);
}

TEST(CostModelRegistryTest, ErrorsAreExplicit) {
  CostModelInstance instance;
  instance.name = "plain";
  instance.graph = Graph(3);
  instance.graph.AddEdge(0, 1);
  std::string error;
  EXPECT_FALSE(MakeCostModel("no-such-cost", instance, true, &error));
  EXPECT_NE(error.find("unknown cost"), std::string::npos);
  EXPECT_FALSE(MakeCostModel("fhw", instance, true, &error));
  EXPECT_NE(error.find("hypergraph"), std::string::npos);
  for (const std::string& name : KnownCostNames()) {
    if (name == "hypertree" || name == "fhw") continue;
    EXPECT_TRUE(MakeCostModel(name, instance, true, &error)) << name;
  }
}

TEST(HypergraphIoTest, RoundTrip) {
  Hypergraph h(5);
  h.AddEdge(VertexSet::Of(5, {0, 1, 2}));
  h.AddEdge(VertexSet::Of(5, {2, 3}));
  h.AddEdge(VertexSet::Of(5, {3, 4}));
  std::ostringstream os;
  WriteHypergraph(h, os);
  std::optional<Hypergraph> parsed = ParseHypergraphString(os.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->NumVertices(), 5);
  ASSERT_EQ(parsed->NumEdges(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(parsed->Edge(i), h.Edge(i));
}

TEST(HypergraphIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseHypergraphString(""));
  EXPECT_FALSE(ParseHypergraphString("p tw 3 1\n1 2\n"));   // wrong format
  EXPECT_FALSE(ParseHypergraphString("p hg 3 2\n1 2\n"));   // missing edge
  EXPECT_FALSE(ParseHypergraphString("p hg 3 1\n1 4\n"));   // out of range
  EXPECT_FALSE(ParseHypergraphString("p hg 3 1\n1 1\n"));   // duplicate
  EXPECT_FALSE(ParseHypergraphString("p hg 3 1\n1 x\n"));   // non-numeric
  EXPECT_FALSE(ParseHypergraphString("1 2\np hg 3 1\n"));   // edge first
  EXPECT_TRUE(ParseHypergraphString("c ok\np hg 3 1\n1 2 3\n"));
}

TEST(ModelIoTest, ParsesPermutedScopesIntoAscendingLayout) {
  // One factor listed with scope (1, 0): the UAI layout has variable 0
  // fastest; the parsed Factor must carry scope {0, 1} row-major.
  const char* text =
      "MARKOV\n"
      "2\n"
      "2 3\n"
      "1\n"
      "2 1 0\n"
      "6 10 20 30 40 50 60\n";
  std::optional<GraphicalModel> m = ParseUaiModelString(text);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->factors.size(), 1u);
  const Factor& f = m->factors[0];
  EXPECT_EQ(f.scope, (std::vector<int>{0, 1}));
  // Raw layout (v1 msd, v0 lsd): entry (v1=j, v0=i) = 10*(2j+i+1).
  // Ascending layout (v0 msd): table[i*3+j] = value at (v0=i, v1=j).
  EXPECT_EQ(f.table, (std::vector<double>{10, 30, 50, 20, 40, 60}));
}

TEST(ModelIoTest, RoundTripPreservesInference) {
  GraphicalModel m = workloads::RandomBayesNet(7, 2, 3, 4242);
  std::ostringstream os;
  WriteUaiModel(m, os);
  std::optional<GraphicalModel> parsed = ParseUaiModelString(os.str());
  ASSERT_TRUE(parsed.has_value());
  JunctionTreeInference a(m.domains, m.factors);
  JunctionTreeInference b(parsed->domains, parsed->factors);
  auto ra = a.BruteForce();
  auto rb = b.BruteForce();
  EXPECT_FALSE(ra.degenerate);
  EXPECT_NEAR(ra.partition_function / rb.partition_function, 1.0, 1e-9);
}

TEST(ModelIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseUaiModelString(""));
  EXPECT_FALSE(ParseUaiModelString("GIBBS\n1\n2\n0\n"));
  EXPECT_FALSE(ParseUaiModelString("MARKOV\n1\n0\n0\n"));   // domain < 1
  EXPECT_FALSE(ParseUaiModelString("MARKOV\n1\n2\n1\n1 5\n2 1 1\n"));
  EXPECT_FALSE(ParseUaiModelString("MARKOV\n2\n2 2\n1\n2 0 0\n4 1 1 1 1\n"));
  EXPECT_FALSE(ParseUaiModelString("MARKOV\n1\n2\n1\n1 0\n3 1 1 1\n"));
  EXPECT_FALSE(
      ParseUaiModelString("MARKOV\n1\n2\n1\n1 0\n2 1 -1\n"));  // negative
  EXPECT_TRUE(ParseUaiModelString("MARKOV\n1\n2\n1\n1 0\n2 1 1\n"));
}

TEST(TpchHypergraphTest, CoversAllVerticesOnEveryQuery) {
  for (const workloads::TpchQuery& q : workloads::AllTpchQueries()) {
    Hypergraph h = workloads::TpchQueryHypergraph(q);
    EXPECT_EQ(h.NumVertices(),
              q.graph.NumVertices() + q.graph.NumEdges());
    EXPECT_EQ(h.NumEdges(), q.graph.NumVertices());
    EXPECT_TRUE(h.CoversAllVertices()) << "query " << q.number;
    // Each relation's hyperedge contains its private vertex and exactly its
    // incident join predicates.
    for (int r = 0; r < q.graph.NumVertices(); ++r) {
      EXPECT_TRUE(h.Edge(r).Contains(r));
      EXPECT_EQ(h.Edge(r).Count() - 1, q.graph.Neighbors(r).Count());
    }
  }
}

}  // namespace
}  // namespace mintri
