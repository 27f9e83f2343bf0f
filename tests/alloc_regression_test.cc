// Heap-allocation regression tests: under -DMINTRI_COUNT_ALLOCS=ON the
// global operator new/delete are instrumented with thread-local counters,
// and these tests pin the allocation behavior the PR-9 memory work bought —
// most importantly that the serial minimal-separator inner loop performs
// ZERO heap allocations in steady state on small universes. In builds
// without the instrumentation every test skips (the invariant cannot be
// observed there); CI runs a dedicated MINTRI_COUNT_ALLOCS leg.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/vertex_set.h"
#include "graph/vertex_set_pool.h"
#include "graph/vertex_set_table.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "util/alloc_counter.h"
#include "workloads/named_graphs.h"

namespace mintri {
namespace {

#define SKIP_WITHOUT_COUNTERS()                                          \
  if (!AllocCountingEnabled()) {                                         \
    GTEST_SKIP() << "build without MINTRI_COUNT_ALLOCS; the allocation " \
                    "invariants are only observable in instrumented "    \
                    "builds";                                            \
  }

TEST(AllocRegressionTest, SmallVertexSetsNeverTouchTheAllocator) {
  SKIP_WITHOUT_COUNTERS();
  // The whole <= 128-vertex regime — every bundled bench family — must
  // construct, copy, move, mutate, and destroy without a single heap call.
  const AllocCounters before = ReadAllocCounters();
  for (int cap : {1, 63, 64, 65, 127, 128}) {
    VertexSet s(cap);
    s.Insert(0);
    s.Insert(cap - 1);
    VertexSet copy = s;
    copy.UnionWith(s);
    VertexSet moved = std::move(copy);
    (void)moved.Hash();
    (void)(moved == s);
  }
  const AllocCounters delta = ReadAllocCounters() - before;
  EXPECT_EQ(delta.allocations, 0u);
  EXPECT_EQ(delta.bytes, 0u);
}

TEST(AllocRegressionTest, WideVertexSetsSpillOncePerBuffer) {
  SKIP_WITHOUT_COUNTERS();
  const AllocCounters before = ReadAllocCounters();
  VertexSet s(640);  // 10 words: one heap buffer
  s.Insert(639);
  const AllocCounters after_build = ReadAllocCounters() - before;
  EXPECT_EQ(after_build.allocations, 1u);
  // Mutation and shrink-reuse stay free once the buffer exists.
  s.Reset(640);
  s.Insert(5);
  (void)s.Hash();
  const AllocCounters after_reuse = ReadAllocCounters() - before;
  EXPECT_EQ(after_reuse.allocations, 1u);
}

TEST(AllocRegressionTest, ReservedTableInsertsAreAllocationFree) {
  SKIP_WITHOUT_COUNTERS();
  // A Reserve()d dedup table absorbs its advertised number of distinct
  // small sets without growing anything.
  constexpr int kSets = 500;
  VertexSetTable table;
  table.Reserve(kSets);
  std::vector<VertexSet> sets;
  sets.reserve(kSets);
  for (int i = 0; i < kSets; ++i) {
    VertexSet s(128);
    s.Insert(i % 128);
    s.Insert((i * 7 + 3) % 128);
    s.Insert((i / 128) % 128);
    sets.push_back(std::move(s));
  }
  const AllocCounters before = ReadAllocCounters();
  for (const VertexSet& s : sets) table.Insert(s);
  for (const VertexSet& s : sets) EXPECT_GE(table.Find(s), 0);
  const AllocCounters delta = ReadAllocCounters() - before;
  EXPECT_EQ(delta.allocations, 0u);
}

TEST(AllocRegressionTest, PooledAcquireReleaseIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_COUNTERS();
  VertexSetPool pool;
  pool.Release(VertexSet(640));  // warm: one pooled heap buffer
  const AllocCounters before = ReadAllocCounters();
  for (int round = 0; round < 100; ++round) {
    VertexSet s = pool.Acquire(640);
    s.Insert(round % 640);
    pool.Release(std::move(s));
  }
  const AllocCounters delta = ReadAllocCounters() - before;
  EXPECT_EQ(delta.allocations, 0u);
}

TEST(AllocRegressionTest, SerialMinsepLoopIsAllocationFreeAfterWarmup) {
  SKIP_WITHOUT_COUNTERS();
  // The headline invariant: on a small-universe family graph, the serial
  // Berry–Bordat–Cogis inner loop — expansion, component scan, dedup
  // probe, arena append, result emission — runs with ZERO heap
  // allocations once (a) the enumerator knows the answer-set size
  // (Reserve) and (b) its scratch warmed up on the first few results.
  const Graph g = workloads::Queen(5);  // 25 vertices, rich separator set
  ASSERT_LE(g.NumVertices(), 128);

  // Discovery pass: learn the answer-set size the Reserve needs.
  const size_t total = ListMinimalSeparators(g).separators.size();
  ASSERT_GT(total, 100u) << "corpus graph too trivial to measure";

  MinimalSeparatorEnumerator enumerator(g, g.NumVertices());
  enumerator.Reserve(total);
  // Warm-up: first results size the component scanner and the expansion
  // scratch to this graph.
  size_t produced = 0;
  for (; produced < 5; ++produced) {
    ASSERT_TRUE(enumerator.Next().has_value());
  }

  const AllocCounters before = ReadAllocCounters();
  while (true) {
    std::optional<VertexSet> s = enumerator.Next();
    if (!s.has_value()) break;
    ++produced;
  }
  const AllocCounters delta = ReadAllocCounters() - before;
  EXPECT_EQ(produced, total);
  EXPECT_EQ(delta.allocations, 0u)
      << "the steady-state minsep loop allocated " << delta.allocations
      << " times over " << (produced - 5) << " results";
  EXPECT_EQ(delta.bytes, 0u);
}

TEST(AllocRegressionTest, PmcTesterScratchIsReusedAcrossTests) {
  SKIP_WITHOUT_COUNTERS();
  // IsPmc goes through a fresh tester; per-candidate testing inside the
  // enumerator reuses one tester's scratch. Pin the reuse at the API we
  // have: repeated Test calls through one tester allocate nothing after
  // the first.
  const Graph g = workloads::Grid(4, 5);
  const PmcResult all = ListPotentialMaximalCliques(g);
  ASSERT_EQ(all.status, EnumerationStatus::kComplete);
  ASSERT_GT(all.pmcs.size(), 10u);

  // Warm-up call, then measure a sweep over every known PMC.
  ASSERT_TRUE(IsPmc(g, all.pmcs.front()));
  const AllocCounters before = ReadAllocCounters();
  for (const VertexSet& omega : all.pmcs) {
    // A fresh tester per call would allocate its scanner/cover each time;
    // the IsPmc wrapper does exactly that, so this loop instead pins an
    // upper bound: per-call traffic must stay O(1) buffers, not O(n).
    EXPECT_TRUE(IsPmc(g, omega));
  }
  const AllocCounters delta = ReadAllocCounters() - before;
  // Generous ceiling: a handful of scratch buffers per IsPmc call. The
  // real win (tester reuse inside the enumerator) is covered by the
  // enumeration finishing with bounded per-PMC traffic below.
  EXPECT_LT(delta.allocations, all.pmcs.size() * 30);
}

TEST(AllocRegressionTest, PmcEnumerationAllocationsAreBoundedPerResult) {
  SKIP_WITHOUT_COUNTERS();
  // The incremental PMC enumeration cannot be strictly allocation-free
  // (each prefix step builds a new graph and separator set), but after the
  // pooling/table work its per-emitted-PMC allocation count must stay a
  // small constant. Before PR 9 the dedup alone spent one unordered_set
  // node per distinct candidate — an order of magnitude above this bound.
  const Graph g = workloads::Queen(5);
  const AllocCounters before = ReadAllocCounters();
  const PmcResult result = ListPotentialMaximalCliques(g);
  const AllocCounters delta = ReadAllocCounters() - before;
  ASSERT_EQ(result.status, EnumerationStatus::kComplete);
  ASSERT_GT(result.pmcs.size(), 50u);
  const double per_pmc =
      static_cast<double>(delta.allocations) /
      static_cast<double>(result.pmcs.size());
  EXPECT_LT(per_pmc, 40.0) << "allocations per emitted PMC regressed: "
                           << per_pmc;
}

}  // namespace
}  // namespace mintri
