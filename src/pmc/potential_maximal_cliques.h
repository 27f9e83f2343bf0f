#ifndef MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_
#define MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_

#include <vector>

#include "graph/graph.h"
#include "separators/minimal_separators.h"

namespace mintri {

/// Local test for potential maximal cliques (Bouchitté–Todinca): Ω is a PMC
/// of g iff
///   (1) G \ Ω has no full component w.r.t. Ω (no component C with
///       N(C) = Ω), and
///   (2) Ω is "cliquish": every two non-adjacent x, y ∈ Ω are both in N(C)
///       for some component C of G \ Ω (so saturating the associated
///       minimal separators turns Ω into a clique).
/// This characterization is exact; the enumerators below rely on it for
/// soundness.
bool IsPmc(const Graph& g, const VertexSet& omega);

struct PmcResult {
  std::vector<VertexSet> pmcs;
  EnumerationStatus status = EnumerationStatus::kComplete;
  /// Candidates the enumeration decided: those that survived the size
  /// filter and the per-step dedup, each settled either by IsPmc or, for a
  /// lifted prefix PMC (cases 1/2 below), by one component scan. Every PMC
  /// of every prefix is decided once, so num_tests >= |Π(G)|; the count is
  /// the same at every thread count and is kept on truncated runs too.
  size_t num_tests = 0;
};

struct PmcOptions {
  EnumerationLimits limits;
  /// Only PMCs of size <= max_size are kept (and candidate generation is
  /// pruned accordingly). Used by MinTriangB with max_size = b + 1.
  int max_size = std::numeric_limits<int>::max();
};

/// Enumerates the potential maximal cliques of g with the vertex-incremental
/// scheme of Bouchitté and Todinca, "Listing all potential maximal cliques
/// of a graph", TCS 276 (2002). A disconnected g is split into its
/// components. A connected g gets a connectivity-preserving vertex order
/// a_1, ..., a_n, so every prefix graph G_i = G[a_1..a_i] is connected, and
/// Π(G_{i+1}) is computed from Π(G_i), Δ(G_i) and Δ(G_{i+1}) (Δ = minimal
/// separators, listed per prefix), with a = a_{i+1} the new vertex. Every
/// PMC Ω of G_{i+1} falls in one of their cases:
///
///   1/2. Ω \ {a} is a PMC Ω' of G_i and Ω is Ω' or Ω' ∪ {a}. For every
///        Ω' ∈ Π(G_i) exactly one of the two is in Π(G_{i+1}), and it is
///        Ω' iff C_a, the component of G_{i+1} \ Ω' containing a, is not
///        full (N(C_a) ≠ Ω'). Proof: the components of G_{i+1} \ Ω' are
///        those of G_i \ Ω', except that the ones adjacent to a merge with
///        a into C_a. Merging keeps Ω' cliquish and leaves every other
///        component non-full, so Ω' is a PMC iff C_a is not full. If it is
///        full, Ω' ∪ {a} is cliquish: a pair inside Ω' keeps its covering
///        component, and an x ∈ Ω' \ N(a) has a neighbor in C_a \ {a},
///        i.e. in a component of G_i \ Ω' that also sees a. The components
///        of G_{i+1} \ (Ω' ∪ {a}) are those of G_i \ Ω', and a full one
///        would have N(C) = Ω' in G_i, so none is full and Ω' ∪ {a} is a
///        PMC. If C_a is not full, take x ∈ Ω' \ N(C_a): no component of
///        G_{i+1} \ (Ω' ∪ {a}) sees both x and a, so Ω' ∪ {a} is not
///        cliquish. Each prefix PMC is therefore decided by one component
///        scan from a, without an IsPmc test.
///   3.   Ω = S ∪ {a} for an S ∈ Δ(G_{i+1}) with a ∉ S. (With a ∈ S the
///        candidate is S itself, a separator, never a PMC.)
///   4.   Ω = S ∪ (T ∩ C) for S, T ∈ Δ(G_{i+1}) and a component C of
///        G_{i+1} \ S, where a ∉ S and S ∉ Δ(G_i): a separator that G_i
///        already had only yields PMCs that cases 1–3 reach (their
///        OneMoreVertex algorithm). T is further restricted to the
///        separators with a ∈ T, and C to the components with a ∉ C: every
///        Ω ∈ Π(G_{i+1}) with a ∈ Ω has Ω \ {a} ∈ Π(G_i) (case 2) or
///        Ω \ {a} ∈ Δ(G_{i+1}) (case 3), so case 4 is needed only for
///        PMCs without a, and a product through a's component contains a.
///        Proof: G_i \ (Ω \ {a}) and G_{i+1} \ Ω have the same
///        components, so Ω \ {a} is cliquish in G_i. If it is not a PMC
///        of G_i, some component C has N(C) = Ω \ {a} in G_i; C is not
///        full for Ω, so a ∉ N(C) and Ω \ {a} = N(C) in G_{i+1} too, a
///        minimal separator of G_{i+1} (the neighborhood of a component of
///        G_{i+1} \ Ω always is). pmc_test checks both lemmas against
///        brute force on every prefix, and the T restriction through the
///        brute-force differentials.
///        With max_size set, an S with |S| >= max_size is skipped, since
///        every product strictly contains S.
///
/// Every candidate is deduplicated per step; those of cases 3 and 4 are
/// filtered through IsPmc.
/// With limits.num_threads > 1 the candidate sources of a step are spread
/// over worker threads; the answer is the same set, returned sorted.
PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const PmcOptions& options = {});

/// Source-compatible form for callers that still pass the separator list
/// they computed (the perfbench package does). The list is not used.
inline PmcResult ListPotentialMaximalCliques(
    const Graph& g, const std::vector<VertexSet>& /*separators*/) {
  return ListPotentialMaximalCliques(g);
}

/// Reference implementation for tests: checks IsPmc on every vertex subset.
/// Exponential; intended for n <= ~16.
std::vector<VertexSet> PmcsBruteForce(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_
