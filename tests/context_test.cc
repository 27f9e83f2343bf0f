#include "triang/context.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "test_util.h"
#include "workloads/families.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

// The candidate PMCs of one wiring node, in candidate order.
std::vector<int> CandidatePmcs(const TriangulationContext& ctx, int node) {
  std::vector<int> out;
  for (int id = ctx.CandidateBegin(node); id < ctx.CandidateEnd(node); ++id) {
    out.push_back(ctx.CandidatePmc(id));
  }
  return out;
}

// The child block lists of one wiring node's candidates, in candidate order.
std::vector<std::vector<int>> ChildLists(const TriangulationContext& ctx,
                                         int node) {
  std::vector<std::vector<int>> out;
  for (int id = ctx.CandidateBegin(node); id < ctx.CandidateEnd(node); ++id) {
    const TriangulationContext::IdRange kids = ctx.Children(id);
    out.emplace_back(kids.begin(), kids.end());
  }
  return out;
}

TEST(ContextTest, PaperExampleCounts) {
  Graph g = testutil::PaperExampleGraph();
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->minimal_separators().size(), 3u);
  EXPECT_EQ(ctx->pmcs().size(), 6u);
  // Full blocks: S1 has 2, S2 has 3, S3 has 2 -> 7.
  EXPECT_EQ(ctx->blocks().size(), 7u);
  EXPECT_EQ(CandidatePmcs(*ctx, ctx->root_node()).size(), 6u);
  EXPECT_GT(ctx->init_seconds(), 0.0);
}

TEST(ContextTest, BlocksSortedAscending) {
  Graph g = workloads::Grid(3, 3);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  for (size_t i = 1; i < ctx->blocks().size(); ++i) {
    EXPECT_LE(ctx->blocks()[i - 1].vertices.Count(),
              ctx->blocks()[i].vertices.Count());
  }
}

TEST(ContextTest, ChildrenAreStrictlySmallerBlocks) {
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.3, 8000 + seed);
    auto ctx = TriangulationContext::Build(g);
    ASSERT_TRUE(ctx.has_value());
    for (int i = 0; i < ctx->root_node(); ++i) {
      const auto& block = ctx->blocks()[i];
      for (int id = ctx->CandidateBegin(i); id < ctx->CandidateEnd(i); ++id) {
        const VertexSet& omega = ctx->pmcs()[ctx->CandidatePmc(id)];
        // S ⊂ Ω ⊆ S ∪ C.
        EXPECT_TRUE(block.separator.IsSubsetOf(omega));
        EXPECT_NE(block.separator, omega);
        EXPECT_TRUE(omega.IsSubsetOf(block.vertices));
        for (int cid : ctx->Children(id)) {
          const auto& child = ctx->blocks()[cid];
          EXPECT_LT(child.vertices.Count(), block.vertices.Count());
          EXPECT_TRUE(child.vertices.IsSubsetOf(block.vertices));
          // The child's separator is contained in Ω.
          EXPECT_TRUE(child.separator.IsSubsetOf(omega));
        }
      }
    }
  }
}

TEST(ContextTest, EveryBlockHasACandidate) {
  // Theorem 5.4 guarantees every full-block realization has a minimal
  // triangulation topped by a PMC of G.
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(10, 0.25, 9000 + seed);
    auto ctx = TriangulationContext::Build(g);
    ASSERT_TRUE(ctx.has_value());
    for (int i = 0; i < ctx->root_node(); ++i) {
      const auto& block = ctx->blocks()[i];
      EXPECT_LT(ctx->CandidateBegin(i), ctx->CandidateEnd(i))
          << "block " << block.vertices.ToString() << " separator "
          << block.separator.ToString();
    }
  }
}

TEST(ContextTest, SeparatorLimitsReported) {
  Graph g = workloads::Grid(4, 4);
  ContextOptions options;
  options.separator_limits.max_results = 3;
  EXPECT_FALSE(TriangulationContext::Build(g, options).has_value());
}

TEST(ContextTest, BuildInfoOnSuccess) {
  Graph g = testutil::PaperExampleGraph();
  ContextBuildInfo info;
  auto ctx = TriangulationContext::Build(g, {}, &info);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(info.termination, ContextBuildInfo::Termination::kCompleted);
  EXPECT_STREQ(info.TerminationName(), "completed");
  EXPECT_EQ(info.num_minseps, 3u);
  EXPECT_EQ(info.num_pmcs, 6u);
  EXPECT_EQ(info.num_blocks, 7u);
  // Each accepted PMC was decided once, by IsPmc or by the scan that lifts
  // a prefix PMC.
  EXPECT_GE(info.num_pmc_tests, info.num_pmcs);
  ContextBuildInfo sum = info;
  sum.Accumulate(info);
  EXPECT_EQ(sum.num_pmc_tests, 2 * info.num_pmc_tests);
  EXPECT_GT(info.total_seconds, 0.0);
  EXPECT_GE(info.total_seconds, info.minsep_seconds);
  EXPECT_GE(info.total_seconds, info.pmc_seconds);
  // The context carries the same breakdown.
  EXPECT_EQ(ctx->build_info().num_pmcs, 6u);
  EXPECT_EQ(ctx->init_seconds(), ctx->build_info().total_seconds);
}

TEST(ContextTest, BuildInfoReportsMsTermination) {
  Graph g = workloads::Grid(4, 4);
  ContextOptions options;
  options.separator_limits.max_results = 3;
  ContextBuildInfo info;
  EXPECT_FALSE(TriangulationContext::Build(g, options, &info).has_value());
  EXPECT_EQ(info.termination, ContextBuildInfo::Termination::kMsTerminated);
  EXPECT_STREQ(info.TerminationName(), "ms-terminated");
  EXPECT_GT(info.total_seconds, 0.0);
  EXPECT_EQ(info.num_pmcs, 0u);  // the PMC stage never ran
}

TEST(ContextTest, BuildInfoReportsPmcTermination) {
  Graph g = workloads::Grid(4, 4);
  ContextOptions options;
  options.pmc_limits.max_results = 2;
  ContextBuildInfo info;
  EXPECT_FALSE(TriangulationContext::Build(g, options, &info).has_value());
  EXPECT_EQ(info.termination, ContextBuildInfo::Termination::kPmcTerminated);
  EXPECT_STREQ(info.TerminationName(), "pmc-terminated");
  EXPECT_GT(info.num_minseps, 0u);  // the separator stage completed
}

TEST(ContextTest, ParallelBuildIsIdentical) {
  // The num_threads knob must not change a single byte of the context:
  // separator/PMC stages are deterministic-complete and the Step-4 wiring
  // merges in serial order regardless of which worker computed it.
  std::vector<Graph> graphs = {workloads::Grid(4, 4), workloads::Grid(3, 5)};
  for (int seed = 0; seed < 3; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(14, 0.3, 61000 + seed));
  }
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    auto serial = TriangulationContext::Build(g);
    ContextOptions parallel_options;
    parallel_options.num_threads = 4;
    auto parallel = TriangulationContext::Build(g, parallel_options);
    ASSERT_TRUE(serial.has_value() && parallel.has_value());
    EXPECT_EQ(serial->minimal_separators(), parallel->minimal_separators());
    EXPECT_EQ(serial->pmcs(), parallel->pmcs());
    ASSERT_EQ(serial->blocks().size(), parallel->blocks().size());
    const int root = serial->root_node();
    EXPECT_EQ(CandidatePmcs(*serial, root), CandidatePmcs(*parallel, root));
    EXPECT_EQ(ChildLists(*serial, root), ChildLists(*parallel, root));
    for (size_t i = 0; i < serial->blocks().size(); ++i) {
      const auto& a = serial->blocks()[i];
      const auto& b = parallel->blocks()[i];
      EXPECT_EQ(a.separator, b.separator) << "graph " << gi << " block " << i;
      EXPECT_EQ(a.component, b.component);
      EXPECT_EQ(a.vertices, b.vertices);
      EXPECT_EQ(CandidatePmcs(*serial, static_cast<int>(i)),
                CandidatePmcs(*parallel, static_cast<int>(i)));
      EXPECT_EQ(ChildLists(*serial, static_cast<int>(i)),
                ChildLists(*parallel, static_cast<int>(i)));
    }
    for (size_t i = 0; i < serial->minimal_separators().size(); ++i) {
      EXPECT_EQ(parallel->SeparatorId(serial->minimal_separators()[i]),
                static_cast<int>(i));
    }
  }
}

TEST(ContextTest, ParallelBoundedBuildIsIdentical) {
  Graph g = workloads::Grid(4, 4);
  ContextOptions serial_options;
  serial_options.width_bound = 4;
  auto serial = TriangulationContext::Build(g, serial_options);
  ContextOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  auto parallel = TriangulationContext::Build(g, parallel_options);
  ASSERT_TRUE(serial.has_value() && parallel.has_value());
  EXPECT_EQ(serial->minimal_separators(), parallel->minimal_separators());
  EXPECT_EQ(serial->pmcs(), parallel->pmcs());
  ASSERT_EQ(serial->blocks().size(), parallel->blocks().size());
  for (int node = 0; node <= serial->root_node(); ++node) {
    EXPECT_EQ(CandidatePmcs(*serial, node), CandidatePmcs(*parallel, node));
    EXPECT_EQ(ChildLists(*serial, node), ChildLists(*parallel, node));
  }
}

TEST(ContextTest, SeparatorIdRoundTrip) {
  Graph g = testutil::PaperExampleGraph();
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  for (size_t i = 0; i < ctx->minimal_separators().size(); ++i) {
    EXPECT_EQ(ctx->SeparatorId(ctx->minimal_separators()[i]),
              static_cast<int>(i));
  }
  EXPECT_EQ(ctx->SeparatorId(VertexSet::Of(6, {0, 2})), -1);
}

TEST(ContextTest, BoundedContextFiltersSizes) {
  Graph g = workloads::Grid(3, 3);
  ContextOptions options;
  options.width_bound = 3;
  auto ctx = TriangulationContext::Build(g, options);
  ASSERT_TRUE(ctx.has_value());
  for (const VertexSet& s : ctx->minimal_separators()) {
    EXPECT_LE(s.Count(), 3);
  }
  for (const VertexSet& p : ctx->pmcs()) EXPECT_LE(p.Count(), 4);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fold(uint64_t h, const std::vector<int>& ids) {
  h = Mix(h ^ ids.size());
  for (int id : ids) h = Mix(h ^ static_cast<uint64_t>(id + 1));
  return h;
}

// An order-sensitive digest of the DP wiring: the root candidates and
// children, then every block's candidate PMCs and children, by block id.
uint64_t WiringDigest(const TriangulationContext& ctx) {
  uint64_t h = Fold(0, CandidatePmcs(ctx, ctx.root_node()));
  for (const std::vector<int>& kids : ChildLists(ctx, ctx.root_node())) {
    h = Fold(h, kids);
  }
  for (int block = 0; block < ctx.root_node(); ++block) {
    h = Fold(h, CandidatePmcs(ctx, block));
    for (const std::vector<int>& kids : ChildLists(ctx, block)) {
      h = Fold(h, kids);
    }
  }
  return h;
}

// The wiring of family graphs pinned to the one that located each host
// block (S, C*) with a BFS from Ω \ S, at one and four threads.
TEST(ContextTest, WiringDigestUnchanged) {
  struct Pin {
    const char* family;
    const char* graph;
    size_t blocks;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"Grids", "grid6x6", 9150, 0x0490411f0deaa861ULL},
      {"CSP", "csp_rand_5", 2170, 0x4595902e014d6d56ULL},
      {"Segmentation", "segment_0", 2260, 0x9a566279850a6f9eULL},
  };
  for (const Pin& pin : pins) {
    const Graph* g = nullptr;
    const workloads::DatasetFamily family = workloads::FamilyByName(pin.family);
    for (const workloads::DatasetGraph& dg : family.graphs) {
      if (dg.name == pin.graph) g = &dg.graph;
    }
    ASSERT_NE(g, nullptr) << pin.graph;
    for (int threads : {1, 4}) {
      ContextOptions options;
      options.num_threads = threads;
      auto ctx = TriangulationContext::Build(*g, options);
      ASSERT_TRUE(ctx.has_value()) << pin.graph;
      EXPECT_EQ(ctx->blocks().size(), pin.blocks) << pin.graph;
      EXPECT_EQ(WiringDigest(*ctx), pin.digest)
          << pin.graph << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mintri
