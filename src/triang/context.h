#ifndef MINTRI_TRIANG_CONTEXT_H_
#define MINTRI_TRIANG_CONTEXT_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/vertex_set_table.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"

namespace mintri {

struct ContextOptions {
  /// Limits for the minimal-separator enumeration ("one minute" in Fig. 5).
  EnumerationLimits separator_limits;
  /// Limits for the PMC enumeration ("30 minutes" in Fig. 5).
  EnumerationLimits pmc_limits;
  /// If >= 0, build the bounded-width context of MinTriangB (Section 5.3):
  /// only minimal separators of size <= width_bound and PMCs of size
  /// <= width_bound + 1 are computed and used.
  int width_bound = -1;
  /// Worker threads for every stage of Build: the MinSep and PMC
  /// enumerations run through the src/parallel/ engines, and the Step-4 DP
  /// wiring sweep over PMCs is forked over the same thread count. 1 (the
  /// default) is the serial path; a per-stage
  /// separator_limits.num_threads / pmc_limits.num_threads still wins when
  /// it asks for more. The built context is identical at every thread
  /// count.
  int num_threads = 1;
};

/// How (and how fast) a context build ended — the Fig. 5 taxonomy: a graph
/// is "MS terminated" when the minimal-separator stage hit its limits and
/// "PMC terminated" when the PMC stage did. Filled by
/// TriangulationContext::Build even on failure, so callers can report which
/// stage gave up and where the initialization time went.
struct ContextBuildInfo {
  enum class Termination {
    kCompleted,      // the context was fully built
    kMsTerminated,   // the minimal-separator enumeration hit its limits
    kPmcTerminated,  // the PMC enumeration hit its limits
  };
  Termination termination = Termination::kCompleted;

  // Per-stage wall-clock breakdown (seconds); stages that never ran are 0.
  double minsep_seconds = 0;
  double pmc_seconds = 0;
  double blocks_seconds = 0;  // Step 3: full blocks
  double wiring_seconds = 0;  // Step 4: DP wiring
  double total_seconds = 0;

  size_t num_minseps = 0;
  size_t num_pmcs = 0;
  size_t num_blocks = 0;
  size_t num_pmc_tests = 0;  // PmcResult::num_tests of the PMC stage

  // Per-build termination tally. One Build/BuildFromFamily call counts as
  // one build; Accumulate sums these, so an aggregate over many atoms keeps
  // truthful per-atom termination counts instead of conflating "budget hit
  // during MinSep" across atoms into the single `termination` enum (which
  // stays as the first non-completed stage for backward compatibility).
  size_t num_builds = 0;
  size_t num_ms_terminated = 0;
  size_t num_pmc_terminated = 0;

  // Tier-0 preprocessing fold-in (set by the tiered enumerator from its
  // PreprocessInfo; plain Build leaves them 0). Accumulate sums these too.
  size_t reduced_vertices = 0;
  size_t num_atoms = 0;
  double preprocess_seconds = 0;

  /// The failure names ("ms-terminated" / "pmc-terminated") are the
  /// BENCH_core.json status labels for failed builds; a successful build
  /// reports "completed" here, which the bench pipeline never emits (it
  /// uses its own "complete"/"truncated" for successful runs).
  const char* TerminationName() const {
    switch (termination) {
      case Termination::kMsTerminated:
        return "ms-terminated";
      case Termination::kPmcTerminated:
        return "pmc-terminated";
      default:
        return "completed";
    }
  }

  /// Accumulates another build's stage times/counts (used by the tiered
  /// enumerator, which builds one context per unit). The termination
  /// becomes the first non-completed stage seen.
  void Accumulate(const ContextBuildInfo& other) {
    minsep_seconds += other.minsep_seconds;
    pmc_seconds += other.pmc_seconds;
    blocks_seconds += other.blocks_seconds;
    wiring_seconds += other.wiring_seconds;
    total_seconds += other.total_seconds;
    num_minseps += other.num_minseps;
    num_pmcs += other.num_pmcs;
    num_blocks += other.num_blocks;
    num_pmc_tests += other.num_pmc_tests;
    num_builds += other.num_builds;
    num_ms_terminated += other.num_ms_terminated;
    num_pmc_terminated += other.num_pmc_terminated;
    reduced_vertices += other.reduced_vertices;
    num_atoms += other.num_atoms;
    preprocess_seconds += other.preprocess_seconds;
    if (termination == Termination::kCompleted) {
      termination = other.termination;
    }
  }
};

/// The "initialization step" of the paper (Section 7.1): the minimal
/// separators, potential maximal cliques, full blocks and — precomputed once
/// so that every later MinTriang call is a pure table-filling pass — the
/// candidate PMCs of each full block and the child blocks of every
/// (block, Ω) pair. RankedTriang shares one context across all of its
/// MinTriang invocations, exactly as described in Section 7.1.
class TriangulationContext {
 public:
  /// A full block (S, C) plus its DP wiring.
  struct BlockEntry {
    VertexSet separator;  // S
    VertexSet component;  // C
    VertexSet vertices;   // S ∪ C
    /// PMCs Ω with S ⊂ Ω ⊆ S ∪ C, as indices into pmcs.
    std::vector<int> candidate_pmcs;
    /// children[k] lists the block ids of the blocks of candidate_pmcs[k]
    /// inside the realization R(S, C); each is a full block of G (Thm 5.4).
    std::vector<std::vector<int>> children;
  };

  /// Builds the context. Returns std::nullopt when a limit was hit (the
  /// graph is "MS terminated" or "PMC terminated" in the Fig. 5 sense);
  /// when `info` is non-null it receives the stage breakdown either way.
  /// The graph must be connected and non-empty.
  static std::optional<TriangulationContext> Build(
      const Graph& g, const ContextOptions& options = {},
      ContextBuildInfo* info = nullptr);

  /// Builds a context over a caller-supplied *restricted family* of minimal
  /// separators and PMCs of g (both deduplicated here) instead of the full
  /// enumeration — the Tier-2 heuristic path: the DP over any family of
  /// genuine minimal separators / PMCs yields genuine minimal
  /// triangulations, just not necessarily all of them. PMCs whose
  /// associated blocks are not realizable within the family are dropped
  /// (never an assertion failure, unlike the bounded-width exact build).
  /// The graph must be connected and non-empty.
  static TriangulationContext BuildFromFamily(const Graph& g,
                                              std::vector<VertexSet> minseps,
                                              std::vector<VertexSet> pmcs,
                                              ContextBuildInfo* info = nullptr);

  const Graph& graph() const { return graph_; }
  const std::vector<VertexSet>& minimal_separators() const { return minseps_; }
  const std::vector<VertexSet>& pmcs() const { return pmcs_; }
  const std::vector<BlockEntry>& blocks() const { return blocks_; }
  /// Root candidates: all PMCs; root_children()[k] are the block ids of the
  /// blocks associated to pmcs()[root_candidates()[k]] in G.
  const std::vector<int>& root_candidates() const { return root_candidates_; }
  const std::vector<std::vector<int>>& root_children() const {
    return root_children_;
  }
  int width_bound() const { return width_bound_; }
  double init_seconds() const { return build_info_.total_seconds; }
  /// Stage-by-stage initialization breakdown of this (successful) build.
  const ContextBuildInfo& build_info() const { return build_info_; }

  /// Index of a minimal separator in minimal_separators(), or -1.
  int SeparatorId(const VertexSet& s) const {
    return separator_index_.Find(s);
  }
  /// Index of the full block with component c, or -1.
  int BlockIdByComponent(const VertexSet& c) const {
    return block_index_.Find(c);
  }

 private:
  // Steps 3–4 of both builds: full blocks over ctx->minseps_ plus the DP
  // wiring of ctx->pmcs_. With allow_partial, PMCs whose associated blocks
  // are missing from the (restricted or width-bounded) block table are
  // skipped instead of asserting.
  static void BuildBlocksAndWiring(TriangulationContext* ctx,
                                   bool allow_partial, int num_threads,
                                   ContextBuildInfo* bi);

  Graph graph_;
  std::vector<VertexSet> minseps_;
  std::vector<VertexSet> pmcs_;
  std::vector<BlockEntry> blocks_;  // sorted by |S ∪ C| ascending
  std::vector<int> root_candidates_;
  std::vector<std::vector<int>> root_children_;
  // Arena-index tables: entry i of each table is minseps_[i] /
  // blocks_[i].component, so Find doubles as the id lookup.
  VertexSetTable separator_index_;
  VertexSetTable block_index_;
  int width_bound_ = -1;
  ContextBuildInfo build_info_;
};

}  // namespace mintri

#endif  // MINTRI_TRIANG_CONTEXT_H_
