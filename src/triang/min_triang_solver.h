#ifndef MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
#define MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/bag_cost.h"
#include "triang/context.h"
#include "triang/triangulation.h"
#include "util/range_min_tree.h"
#include "util/timer.h"

namespace mintri {

/// The stateful MinTriang⟨κ[I,X]⟩ engine behind MinTriang and RankedTriang:
/// the block DP of Figure 3 with its per-block candidate/value/choice tables
/// kept alive between calls, so that consecutive solves under *nearby*
/// constraint sets are incremental repairs instead of full passes.
///
/// Solve(I, X) computes a minimum-κ[I,X] minimal triangulation, where I/X
/// are inclusion/exclusion constraints given as sorted separator-id lists of
/// the context (Section 6.1). Between calls the solver diffs the constraint
/// sets and re-evaluates only the candidates a moved separator S can affect:
///
///  - an exclusion delta touches candidates with S ⊆ Ω (only there does the
///    κ[I,X] exclusion test read S);
///  - an inclusion delta touches candidates where S fits the block
///    (S ⊆ S∪C) but neither inside Ω nor inside a child block — the only
///    geometry where the inclusion test can flip;
///  - direction matters: an *added* constraint can only push values to ∞,
///    so affected finite candidates are set to ∞ without evaluation and ∞
///    candidates are left untouched; a *removed* constraint can only revive
///    currently-∞ candidates, so finite ones keep their cached value;
///  - a block whose DP value changed re-dirties exactly the (host, Ω)
///    candidates it appears under, cascading up the ascending block order.
///
/// Each block's candidate values live in the leaves of a range-min segment
/// tree (util/range_min_tree.h): a constraint delta or child change touches
/// a candidate via an O(log n) point update, and re-finding the block
/// optimum is a range-min query at the tree root instead of a scan over the
/// whole candidate list, so the per-repair work is O(touched candidates ·
/// log n). The tree's first-minimum tie-break is the full DP's "first
/// strict improvement wins" rule.
///
/// The repaired tables are *identical* to a from-scratch DP (same values,
/// same first-minimum choice per block), so results are byte-for-byte equal
/// to MinTriang over ConstrainedCost — the differential test suite pins
/// this on randomized constraint walks. This is what makes RankedTriang's
/// constrained calls cheap: it solves its Lawler–Murty partitions lazily,
/// in first-in first-out order, so consecutive calls are mostly siblings
/// that differ by O(1) separators, and each call repairs a handful of
/// blocks instead of re-filling every table (the same amortization argument
/// the paper uses against CKK for initialization, applied to the
/// per-result optimizer calls). Each partition is solved at most once, so
/// there are never more calls than the eager 1 + Σ|MinSep(H)| over the
/// results — about 1.3 per result on grids — but they bunch up at the end
/// of each κ level, so the worst-case delay between two results grows with
/// the number of pending partitions (see enumeration/ranked_enum.h).
///
/// `ctx` and `cost` must outlive the solver. `cost` is the *base* cost κ;
/// the [I,X] wrapping is applied inside the solver through the blocked
/// counters below, which agree with ConstrainedCost's
/// CombineViolatesConstraints test (asserted in debug builds). (Passing a
/// ConstrainedCost as `cost` with empty I/X is also valid — that is exactly
/// what the MinTriang wrapper does.)
class MinTriangSolver {
 public:
  MinTriangSolver(const TriangulationContext& ctx, const BagCost& cost);

  /// Minimum-κ[I,X] minimal triangulation of the context's graph, or
  /// std::nullopt when no finite-cost triangulation satisfies [I,X] (or the
  /// width bound of a bounded context). `include_ids` / `exclude_ids` are
  /// sorted, duplicate-free indices into ctx.minimal_separators(). The
  /// first call is a full DP pass; later calls repair incrementally.
  std::optional<Triangulation> Solve(const std::vector<int>& include_ids,
                                     const std::vector<int>& exclude_ids);

  /// Per-Solve wall-clock budget, polled inside the repair/full-pass
  /// candidate loops (a pathological cascade must not blow a per-query
  /// budget the surrounding enumerators honor). Nullptr (the default)
  /// disables polling; the pointee must outlive the solver or the next
  /// set_deadline call. When the deadline expires mid-solve the call
  /// returns std::nullopt, truncated() turns true for that call, and the
  /// half-repaired tables are discarded: the next Solve runs a full pass
  /// (constraint bookkeeping stays exact, so correctness is unaffected).
  void set_deadline(const Deadline* deadline) { deadline_ = deadline; }

  /// True when the *last* Solve call gave up on an expired deadline (its
  /// std::nullopt then means "out of time", not "infeasible").
  bool truncated() const { return truncated_; }

  /// Candidate evaluations so far (constraint short-circuits included) —
  /// the repair's breadth measure (a full pass evaluates every candidate).
  long long num_candidate_evals() const { return num_candidate_evals_; }

  /// Evaluations that reached the base cost's Combine — the expensive part
  /// of a candidate evaluation (constraint-violated and infeasible-child
  /// candidates short-circuit to ∞ before it).
  long long num_combine_calls() const { return num_combine_calls_; }

  /// Segment-tree point updates.
  long long num_index_updates() const { return num_index_updates_; }

  /// Range-min queries that re-picked a block optimum.
  long long num_range_queries() const { return num_range_queries_; }

  /// Number of (block, Ω) candidates in the DP (root included).
  size_t num_candidates_total() const { return num_candidates_total_; }

 private:
  // Node ids: 0..B-1 are the context's blocks (ascending order), B is the
  // root pseudo-block (S = ∅, S∪C = V, candidates = all usable PMCs).
  int Root() const { return static_cast<int>(ctx_.blocks().size()); }
  const std::vector<int>& Candidates(int node) const {
    return node == Root() ? ctx_.root_candidates()
                          : ctx_.blocks()[node].candidate_pmcs;
  }
  const std::vector<std::vector<int>>& Children(int node) const {
    return node == Root() ? ctx_.root_children()
                          : ctx_.blocks()[node].children;
  }
  const VertexSet& NodeSeparator(int node) const {
    return node == Root() ? empty_separator_
                          : ctx_.blocks()[node].separator;
  }
  const VertexSet& NodeVertices(int node) const {
    return node == Root() ? all_vertices_ : ctx_.blocks()[node].vertices;
  }

  // The candidates a constraint over separator sep_id can affect, split by
  // role: `exclusion` lists (node, k) with S ⊆ Ω; `inclusion` lists
  // (node, k) where S fits the block but is neither inside Ω nor inside a
  // child block. Static per context, computed on first use and cached, so
  // constraint deltas walk exact lists instead of scanning the tables.
  struct SepGeometry {
    std::vector<std::pair<int, int>> exclusion;
    std::vector<std::pair<int, int>> inclusion;
  };
  const SepGeometry& GeometryFor(int sep_id);

  // Updates blocked counts for the epoch's constraint delta, forcing
  // newly-blocked finite candidates to ∞ and marking candidates whose last
  // blocker went away dirty for re-evaluation.
  void ApplyConstraintDelta(const std::vector<int>& added_exc,
                            const std::vector<int>& added_inc,
                            const std::vector<int>& removed_exc,
                            const std::vector<int>& removed_inc, bool full);

  // Stamps (node, k) dirty for this epoch (idempotent) and appends it to
  // the node's pending re-evaluation list.
  void MarkDirty(int node, int k);

  // Deadline poll (rate-limited to one clock read per 64 ticks). Returns
  // true — and latches truncated_ — once the budget is gone.
  bool PollDeadline();

  // The table-repair forward pass (root last): re-evaluates the dirty
  // candidates and re-picks each touched block's optimum.
  void Repair(bool full);

  // Evaluates candidate k of `node` (∞ when a child is infeasible). The
  // caller has already skipped candidates that violate [I,X] at this bag.
  CostValue EvalCandidate(int node, size_t k);

  // Builds the Triangulation from the solved tables (Appendix A: one bag
  // per block, rooted at Ω(G)).
  Triangulation Reconstruct();

  const TriangulationContext& ctx_;
  const BagCost& cost_;
  VertexSet empty_separator_;
  VertexSet all_vertices_;

  // Builds host_cands_, deferred to the first incremental solve (a
  // one-shot full pass never needs the reverse edges).
  void BuildHosts();

  // DP tables, persisted across Solve calls.
  std::vector<std::vector<CostValue>> cand_values_;  // per node, per cand
  std::vector<CostValue> value_;
  std::vector<int> choice_;
  // Per-node range-min tree over cand_values_ (built by the first full
  // pass, point-updated by repairs).
  std::vector<RangeMinTree> cand_trees_;
  // host_cands_[b]: the exact (host node, candidate k) pairs with block b
  // among candidate k's children — the candidate-granular reverse edges the
  // repair dirties directly (no per-candidate child scan).
  std::vector<std::vector<std::pair<int, int>>> host_cands_;
  bool hosts_built_ = false;

  // Current constraint state (sorted ids + materialized vertex sets).
  std::vector<int> include_ids_;
  std::vector<int> exclude_ids_;
  std::vector<VertexSet> include_sets_;
  std::vector<VertexSet> exclude_sets_;
  bool solved_once_ = false;

  // blocked[k]: how many current constraints candidate k violates —
  // exact under add/remove deltas because the per-(S, candidate) geometry
  // is static; > 0 is equivalent to CombineViolatesConstraints.
  std::vector<std::vector<uint32_t>> cand_blocked_;
  // Lazily-built geometry cache, one entry per separator ever constrained
  // (memory is bounded by the separators the enumeration actually touches).
  std::unordered_map<int, SepGeometry> sep_geometry_;

  // Epoch-stamped dirtiness (a stamp equal to epoch_ means "this solve").
  uint32_t epoch_ = 0;
  std::vector<std::vector<uint32_t>> cand_dirty_;  // per node, per cand
  // Pending re-evaluations per node. Only repairs fill them, and a pass
  // empties each node it visits (a full pass also drops what a truncated
  // repair left), so during a repair non-empty means "seeded this solve".
  std::vector<std::vector<int>> dirty_list_;
  std::vector<uint32_t> node_forced_;  // some candidate was forced to ∞

  const Deadline* deadline_ = nullptr;
  bool truncated_ = false;
  uint32_t poll_tick_ = 0;

  // Reused scratch.
  std::vector<const VertexSet*> child_blocks_buf_;
  std::vector<CostValue> child_costs_buf_;
  // Reconstruct() scratch: the DFS stack and the adhesion list are members
  // so the per-result reconstructions of a ranked enumeration (hundreds of
  // Solve calls on one solver) stop re-growing them from scratch — part of
  // the same no-hot-loop-allocations policy as the buffers above. The sets
  // *returned* to the caller still get fresh storage (the Triangulation
  // owns its data); only the scratch is recycled.
  struct ReconstructFrame {
    int block_id;
    int parent_bag;
  };
  std::vector<ReconstructFrame> reconstruct_stack_;
  std::vector<VertexSet> reconstruct_seps_;

  long long num_candidate_evals_ = 0;
  long long num_combine_calls_ = 0;
  long long num_index_updates_ = 0;
  long long num_range_queries_ = 0;
  size_t num_candidates_total_ = 0;
};

}  // namespace mintri

#endif  // MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
