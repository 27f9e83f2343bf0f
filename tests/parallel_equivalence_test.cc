// Differential test layer for the parallel enumeration engine: for
// fixed-seed graphs drawn from every workload family (n <= 60), the
// multi-threaded MinSep/PMC enumerators must produce exactly the serial
// engines' result sets — compared as sorted canonical vertex sets — for the
// unbounded and the max_size-bounded variants alike. Truncated runs are
// checked for prefix validity: every returned set must still pass the exact
// IsMinimalSeparator predicate.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "workloads/families.h"

namespace mintri {
namespace {

std::vector<VertexSet> Sorted(std::vector<VertexSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The separator-count cap for the differential runs. Count caps (unlike
// wall-clock deadlines) truncate deterministically, so serial and parallel
// runs must agree on *whether* they truncated, even though the truncated
// prefixes themselves may differ.
constexpr size_t kSepCap = 20000;

struct NamedGraph {
  std::string name;
  Graph graph;
};

// Up to two graphs per workload family with n <= 60. All families are
// deterministic (fixed seeds), so this corpus is identical on every run.
std::vector<NamedGraph> FamilyCorpus() {
  std::vector<NamedGraph> corpus;
  for (const workloads::DatasetFamily& family : workloads::AllFamilies()) {
    int used = 0;
    for (const workloads::DatasetGraph& dg : family.graphs) {
      if (dg.graph.NumVertices() > 60) continue;
      corpus.push_back({family.name + "/" + dg.name, dg.graph});
      if (++used == 2) break;
    }
  }
  return corpus;
}

class ParallelEquivalence : public ::testing::TestWithParam<int> {
 protected:
  int threads() const { return GetParam(); }
};

TEST_P(ParallelEquivalence, MinimalSeparatorsMatchSerial) {
  for (const NamedGraph& ng : FamilyCorpus()) {
    EnumerationLimits serial_limits;
    serial_limits.max_results = kSepCap;
    MinimalSeparatorsResult serial =
        ListMinimalSeparators(ng.graph, serial_limits);

    EnumerationLimits par_limits = serial_limits;
    par_limits.num_threads = threads();
    MinimalSeparatorsResult par = ListMinimalSeparators(ng.graph, par_limits);

    EXPECT_EQ(par.status, serial.status) << ng.name;
    if (serial.status == EnumerationStatus::kComplete) {
      EXPECT_EQ(Sorted(par.separators), Sorted(serial.separators)) << ng.name;
    } else {
      // The truncated prefix is thread-interleaving dependent; what must
      // hold is its size and that every element is a genuine separator.
      EXPECT_EQ(par.separators.size(), kSepCap) << ng.name;
      for (const VertexSet& s : par.separators) {
        ASSERT_TRUE(IsMinimalSeparator(ng.graph, s)) << ng.name;
      }
    }
  }
}

TEST_P(ParallelEquivalence, BoundedSeparatorsMatchSerial) {
  for (const NamedGraph& ng : FamilyCorpus()) {
    for (int max_size : {3, 5}) {
      EnumerationLimits serial_limits;
      serial_limits.max_results = kSepCap;
      MinimalSeparatorsResult serial =
          ListMinimalSeparatorsBounded(ng.graph, max_size, serial_limits);

      EnumerationLimits par_limits = serial_limits;
      par_limits.num_threads = threads();
      MinimalSeparatorsResult par =
          ListMinimalSeparatorsBounded(ng.graph, max_size, par_limits);

      EXPECT_EQ(par.status, serial.status)
          << ng.name << " max_size=" << max_size;
      if (serial.status == EnumerationStatus::kComplete) {
        EXPECT_EQ(Sorted(par.separators), Sorted(serial.separators))
            << ng.name << " max_size=" << max_size;
      }
    }
  }
}

TEST_P(ParallelEquivalence, PotentialMaximalCliquesMatchSerial) {
  for (const NamedGraph& ng : FamilyCorpus()) {
    // PMC enumeration is only tractable where MinSep(G) is small; the dense
    // "hopeless" families (by design past the separator blow-up) are
    // detected by a deterministic count cap and skipped, exactly as the
    // paper's pipeline refuses them at the initialization step.
    EnumerationLimits probe;
    probe.max_results = 3000;
    MinimalSeparatorsResult seps = ListMinimalSeparators(ng.graph, probe);
    if (seps.status != EnumerationStatus::kComplete) continue;

    PmcResult serial = ListPotentialMaximalCliques(ng.graph);
    ASSERT_EQ(serial.status, EnumerationStatus::kComplete) << ng.name;

    PmcOptions par_options;
    par_options.limits.num_threads = threads();
    PmcResult par = ListPotentialMaximalCliques(ng.graph, par_options);
    EXPECT_EQ(par.status, EnumerationStatus::kComplete) << ng.name;
    // Both sides are already canonically sorted by the API contract.
    EXPECT_EQ(par.pmcs, serial.pmcs) << ng.name;
  }
}

TEST_P(ParallelEquivalence, SizeBoundedPmcsMatchSerial) {
  for (const NamedGraph& ng : FamilyCorpus()) {
    EnumerationLimits probe;
    probe.max_results = 3000;
    MinimalSeparatorsResult seps = ListMinimalSeparators(ng.graph, probe);
    if (seps.status != EnumerationStatus::kComplete) continue;

    PmcOptions serial_options;
    serial_options.max_size = 5;
    PmcResult serial = ListPotentialMaximalCliques(ng.graph, serial_options);
    if (serial.status != EnumerationStatus::kComplete) continue;

    PmcOptions par_options = serial_options;
    par_options.limits.num_threads = threads();
    PmcResult par = ListPotentialMaximalCliques(ng.graph, par_options);
    EXPECT_EQ(par.status, EnumerationStatus::kComplete) << ng.name;
    EXPECT_EQ(par.pmcs, serial.pmcs) << ng.name;
  }
}

// Complete parallel results are canonically sorted, so two runs of the same
// input must be bit-identical however the threads interleaved.
TEST_P(ParallelEquivalence, CompleteRunsAreDeterministic) {
  const Graph g = workloads::FamilyByName("Grids").graphs[1].graph;
  EnumerationLimits limits;
  limits.num_threads = threads();
  MinimalSeparatorsResult a = ListMinimalSeparators(g, limits);
  MinimalSeparatorsResult b = ListMinimalSeparators(g, limits);
  ASSERT_EQ(a.status, EnumerationStatus::kComplete);
  EXPECT_EQ(a.separators, b.separators);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEquivalence,
                         ::testing::Values(2, 4));

}  // namespace
}  // namespace mintri
