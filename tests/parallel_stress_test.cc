// Stress/soak tests for the parallel enumeration engine's truncation paths:
// repeated runs at 2/4/8 threads with tiny max_results caps and near-zero
// deadlines hammer the cancel/stop machinery. Whatever prefix comes back
// must be valid — every separator passes IsMinimalSeparator, every PMC
// passes IsPmc — and the complete-vs-truncated label must be truthful.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

std::vector<VertexSet> Sorted(std::vector<VertexSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct StressGraph {
  std::string name;
  Graph graph;
  std::vector<VertexSet> all_seps;  // the complete serial answer set
};

const std::vector<StressGraph>& StressCorpus() {
  static const std::vector<StressGraph>* corpus = [] {
    auto* c = new std::vector<StressGraph>;
    for (auto& [name, g] : {
             std::pair<std::string, Graph>{"grid5x5", workloads::Grid(5, 5)},
             {"queen5", workloads::Queen(5)},
             {"er36", workloads::ConnectedErdosRenyi(36, 0.18, 424242)},
         }) {
      std::vector<VertexSet> seps =
          Sorted(ListMinimalSeparators(g).separators);
      c->push_back({name, g, std::move(seps)});
    }
    return c;
  }();
  return *corpus;
}

class ParallelStress : public ::testing::TestWithParam<int> {
 protected:
  int threads() const { return GetParam(); }
};

TEST_P(ParallelStress, TinyResultCapsYieldValidLabelledPrefixes) {
  for (const StressGraph& sg : StressCorpus()) {
    for (size_t cap : {size_t{1}, size_t{3}, size_t{7}, size_t{64}}) {
      for (int rep = 0; rep < 3; ++rep) {
        EnumerationLimits limits;
        limits.max_results = cap;
        limits.num_threads = threads();
        MinimalSeparatorsResult r = ListMinimalSeparators(sg.graph, limits);
        ASSERT_LE(r.separators.size(), cap) << sg.name;
        for (const VertexSet& s : r.separators) {
          ASSERT_TRUE(IsMinimalSeparator(sg.graph, s)) << sg.name;
        }
        // A count cap truncates deterministically: truncated iff the full
        // answer set is strictly larger than the cap.
        EXPECT_EQ(r.status == EnumerationStatus::kTruncated,
                  sg.all_seps.size() > cap)
            << sg.name << " cap=" << cap;
        if (r.status == EnumerationStatus::kTruncated) {
          EXPECT_EQ(r.separators.size(), cap) << sg.name;
        }
      }
    }
  }
}

TEST_P(ParallelStress, NearZeroDeadlinesYieldValidLabelledPrefixes) {
  for (const StressGraph& sg : StressCorpus()) {
    for (double deadline : {0.0, 1e-6, 1e-4, 2e-3}) {
      for (int rep = 0; rep < 3; ++rep) {
        EnumerationLimits limits;
        limits.time_limit_seconds = deadline;
        limits.num_threads = threads();
        MinimalSeparatorsResult r = ListMinimalSeparators(sg.graph, limits);
        for (const VertexSet& s : r.separators) {
          ASSERT_TRUE(IsMinimalSeparator(sg.graph, s)) << sg.name;
        }
        // "Complete" must mean complete — whether a racing deadline cut the
        // run short is timing-dependent, but the label may never lie.
        if (r.status == EnumerationStatus::kComplete) {
          EXPECT_EQ(Sorted(r.separators), sg.all_seps) << sg.name;
        } else {
          EXPECT_LE(r.separators.size(), sg.all_seps.size()) << sg.name;
        }
      }
    }
  }
}

TEST_P(ParallelStress, BoundedVariantUnderCapsAndDeadlines) {
  for (const StressGraph& sg : StressCorpus()) {
    std::vector<VertexSet> bounded_all;
    for (const VertexSet& s : sg.all_seps) {
      if (s.Count() <= 4) bounded_all.push_back(s);
    }
    for (size_t cap : {size_t{1}, size_t{5}}) {
      EnumerationLimits limits;
      limits.max_results = cap;
      limits.num_threads = threads();
      MinimalSeparatorsResult r =
          ListMinimalSeparatorsBounded(sg.graph, 4, limits);
      ASSERT_LE(r.separators.size(), cap) << sg.name;
      for (const VertexSet& s : r.separators) {
        ASSERT_TRUE(IsMinimalSeparator(sg.graph, s)) << sg.name;
        ASSERT_LE(s.Count(), 4) << sg.name;
      }
      EXPECT_EQ(r.status == EnumerationStatus::kTruncated,
                bounded_all.size() > cap)
          << sg.name << " cap=" << cap;
    }
    EnumerationLimits expired;
    expired.time_limit_seconds = 0.0;
    expired.num_threads = threads();
    MinimalSeparatorsResult r =
        ListMinimalSeparatorsBounded(sg.graph, 4, expired);
    EXPECT_EQ(r.status, EnumerationStatus::kTruncated) << sg.name;
  }
}

TEST_P(ParallelStress, PmcTruncationPathsStayValid) {
  for (const StressGraph& sg : StressCorpus()) {
    if (sg.all_seps.size() > 1000) continue;  // keep PMC runs cheap
    PmcResult serial = ListPotentialMaximalCliques(sg.graph);
    ASSERT_EQ(serial.status, EnumerationStatus::kComplete) << sg.name;

    for (size_t cap : {size_t{1}, size_t{5}}) {
      PmcOptions options;
      options.limits.max_results = cap;
      options.limits.num_threads = threads();
      PmcResult r = ListPotentialMaximalCliques(sg.graph, options);
      for (const VertexSet& omega : r.pmcs) {
        ASSERT_TRUE(IsPmc(sg.graph, omega)) << sg.name;
      }
      // Like the serial engine, a capped run reports truncation (with an
      // empty result list) iff the full answer exceeds the cap.
      EXPECT_EQ(r.status == EnumerationStatus::kTruncated,
                serial.pmcs.size() > cap)
          << sg.name << " cap=" << cap;
    }
    for (double deadline : {0.0, 2e-3}) {
      PmcOptions options;
      options.limits.time_limit_seconds = deadline;
      options.limits.num_threads = threads();
      PmcResult r = ListPotentialMaximalCliques(sg.graph, options);
      for (const VertexSet& omega : r.pmcs) {
        ASSERT_TRUE(IsPmc(sg.graph, omega)) << sg.name;
      }
      if (r.status == EnumerationStatus::kComplete) {
        EXPECT_EQ(r.pmcs, serial.pmcs) << sg.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelStress, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace mintri
