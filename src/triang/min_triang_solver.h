#ifndef MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
#define MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cost/bag_cost.h"
#include "triang/context.h"
#include "triang/triangulation.h"
#include "util/range_min_tree.h"
#include "util/timer.h"

namespace mintri {

/// The candidates a constraint over minimal separator S can affect, as
/// candidate ids of the context's wiring, ascending. `exclusion` lists the
/// candidates with S ⊆ Ω, the only ones whose exclusion test reads S;
/// `inclusion` lists those where S fits the block (S ⊆ S∪C) but lies
/// neither inside Ω nor inside a child block, the only ones whose inclusion
/// test can flip.
struct SeparatorGeometry {
  std::vector<int> exclusion;
  std::vector<int> inclusion;
};

/// The geometry of minimal separator `sep_id` of `ctx`. It marks S ⊆ Ω for
/// every PMC and S ⊆ S∪C for every block, |Π| + |blocks| subset tests in
/// all, then walks only the candidates of the blocks (and the root) that
/// contain S, reading those marks.
SeparatorGeometry ConstraintGeometry(const TriangulationContext& ctx,
                                     int sep_id);

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
///    so it blocks the affected candidates without evaluating them; a
///    *removed* constraint can only revive blocked candidates, so
///    unblocked ones keep their cached value;
///  - a block whose DP value changed re-dirties exactly the (host, Ω)
///    candidates it appears under, cascading up the ascending block order.
///
/// Three skip rules keep a repair from touching what cannot change. A
/// blocked candidate (blocked count > 0) counts as ∞ however its leaf reads:
///
///  - the cascade skips blocked host candidates. Proof: a blocked
///    candidate is ∞ whatever its children's values are, and removing its
///    last blocker marks it dirty, so it is then re-evaluated on the
///    children's values of that solve;
///  - a re-evaluated candidate whose value did not change leaves its
///    range-min leaf alone. Proof: the leaf already holds that value, so the
///    tree, and with it the block optimum, is the same either way;
///  - a newly blocked candidate keeps its (finite) leaf until it is the
///    tree's first minimum; only then is the leaf set to ∞ and the tree
///    asked again. Proof: a first minimum that is unblocked or ∞ stays the
///    first minimum when every blocked leaf reads ∞, because raising leaves
///    other than the first minimum cannot move it; that is the candidate
///    the full DP picks.
///
/// Layout. The solver reads the context's flat CSR wiring (one global id
/// per (block, Ω) candidate, the root's last; see TriangulationContext) and
/// keeps no copy of it. Its per-candidate tables are flat arrays indexed by
/// that id: values, blocked counts, a dirty bitset, the reverse (child →
/// host candidate) edges in CSR form, and the cached constraint geometry.
/// A repair visits only the blocks that hold a dirty candidate, in id
/// order, which is the ascending block order the cascade needs. The
/// geometry cache holds two id lists per separator ever constrained, 4
/// bytes per listed candidate: on a relabeled 6×6 grid's first 101
/// results, 33 separators and 2.23M ids (8.9 MB), on a 5×5 grid's first
/// 1000, 75 separators and 375k ids (1.5 MB).
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
  size_t num_candidates_total() const {
    return static_cast<size_t>(ctx_.num_candidates());
  }

 private:
  // Node ids are the context's: 0..B-1 are its blocks (ascending order), B
  // is the root pseudo-block (S = ∅, S∪C = V, candidates = all usable PMCs).
  int Root() const { return ctx_.root_node(); }
  const VertexSet& NodeSeparator(int node) const {
    return node == Root() ? empty_separator_
                          : ctx_.blocks()[node].separator;
  }
  const VertexSet& NodeVertices(int node) const {
    return node == Root() ? all_vertices_ : ctx_.blocks()[node].vertices;
  }

  // ConstraintGeometry(ctx_, sep_id), computed on first use and cached, so
  // constraint deltas walk exact lists instead of scanning the tables.
  const SeparatorGeometry& GeometryFor(int sep_id);

  // Updates blocked counts for the solve's constraint delta, marking dirty
  // the newly-blocked finite candidates (so their block is re-picked) and
  // the candidates whose last blocker went away (so they are re-evaluated).
  void ApplyConstraintDelta(const std::vector<int>& added_exc,
                            const std::vector<int>& added_inc,
                            const std::vector<int>& removed_exc,
                            const std::vector<int>& removed_inc, bool full);

  // Marks candidate `cand` for re-evaluation in this solve (idempotent).
  void MarkDirty(int cand) {
    dirty_[static_cast<size_t>(cand) >> 6] |= uint64_t{1} << (cand & 63);
  }
  // The first dirty candidate id in [from, end), or end.
  int NextDirty(int from, int end) const;

  // Deadline poll (rate-limited to one clock read per 64 ticks). Returns
  // true — and latches truncated_ — once the budget is gone.
  bool PollDeadline();

  // The table-repair forward pass (root last): re-evaluates the dirty
  // candidates and re-picks each touched block's optimum.
  void Repair(bool full);
  // Re-picks node's optimum from its range-min tree, first setting any
  // blocked leaf that tops it to ∞; on an incremental pass a changed value
  // dirties the unblocked candidates hosting the node.
  void RepickNode(int node, bool full);

  // Evaluates candidate `cand` of `node` (∞ when a child is infeasible).
  // The caller has already skipped candidates that violate [I,X] at this
  // bag.
  CostValue EvalCandidate(int node, int cand);

  // Builds the Triangulation from the solved tables (Appendix A: one bag
  // per block, rooted at Ω(G)).
  Triangulation Reconstruct();

  const TriangulationContext& ctx_;
  const BagCost& cost_;
  VertexSet empty_separator_;
  VertexSet all_vertices_;

  // Builds the host CSR, deferred to the first incremental solve (a
  // one-shot full pass never needs the reverse edges).
  void BuildHosts();

  // DP tables, persisted across Solve calls. Per candidate id: its value
  // (for a blocked candidate, ∞ or the value it had when it was blocked)
  // and how many current constraints it violates (blocked, exact under
  // add/remove deltas because the per-(S, candidate) geometry is static;
  // > 0 is equivalent to CombineViolatesConstraints). Per node: its value
  // and chosen candidate id (-1 when infeasible).
  std::vector<CostValue> cand_values_;
  std::vector<uint32_t> cand_blocked_;
  std::vector<CostValue> value_;
  std::vector<int> choice_;
  // Per-node range-min tree over the node's slice of cand_values_ (built by
  // the first full pass, point-updated by repairs).
  std::vector<RangeMinTree> cand_trees_;
  // Reverse edges in CSR form: host_cands_[host_begin_[b] ..
  // host_begin_[b + 1]) are the candidate ids with block b among their
  // children, the ones the repair dirties when b's value changes.
  std::vector<int> host_begin_;
  std::vector<int> host_cands_;

  // Current constraint state (sorted ids + materialized vertex sets).
  std::vector<int> include_ids_;
  std::vector<int> exclude_ids_;
  std::vector<VertexSet> include_sets_;
  std::vector<VertexSet> exclude_sets_;
  bool solved_once_ = false;

  // Geometry cache, one entry per separator ever constrained: two int
  // lists of candidate ids, so at most 4 bytes per affected candidate and
  // separator the enumeration actually touches.
  std::unordered_map<int, SeparatorGeometry> sep_geometry_;

  // One bit per candidate id: pending re-evaluation. Only repairs set
  // bits, a repair clears each bit it visits, and a full pass clears them
  // all (dropping what a truncated repair left).
  std::vector<uint64_t> dirty_;

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
};

}  // namespace mintri

#endif  // MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
