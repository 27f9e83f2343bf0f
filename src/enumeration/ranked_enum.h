#ifndef MINTRI_ENUMERATION_RANKED_ENUM_H_
#define MINTRI_ENUMERATION_RANKED_ENUM_H_

#include <optional>
#include <queue>
#include <vector>

#include "cost/bag_cost.h"
#include "triang/context.h"
#include "triang/min_triang_solver.h"

namespace mintri {

/// RankedTriang⟨κ⟩(G) — Figure 4 of the paper. Enumerates the minimal
/// triangulations of the context's graph by increasing κ, with polynomial
/// delay when the context is poly-MS-feasible (Theorem 6.4 / Corollary 6.5),
/// via Lawler–Murty partitioning over sets of minimal separators:
///
///  - each partition is an inclusion/exclusion constraint [I, X] over
///    MinSep(G), represented in the queue by its minimum-cost member once
///    solved;
///  - popping ⟨H, I, X⟩ prints H and splits the remainder of [I, X] by the
///    separators S_1..S_k of MinSep(H) \ I into partitions
///    [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}] for i = 1..k (the paper's Figure 4
///    writes "i = 1..k-1", but the k-th partition — triangulations that
///    contain S_1..S_{k-1} and avoid S_k — can be non-empty, e.g. on the
///    4-cycle, so we generate all k).
///
/// Partitions are solved lazily (Miller, Stone & Cox, "Optimizing Murty's
/// ranked assignment method", IEEE TAES 1997): a new partition enters the
/// queue *unsolved*, keyed by its parent's cost — a valid lower bound, since
/// a partition is a subset of its parent's partition. Only when an unsolved
/// entry reaches the top does the shared MinTriangSolver compute its
/// representative under κ[I, X]; a feasible one is re-queued at its own
/// cost, an infeasible one dropped. Ties order solved entries before
/// unsolved ones, and each group first-in first-out, so consecutive solves
/// are siblings that differ by O(1) separators and each is an incremental
/// DP repair (Section 7.1's amortization, extended to the per-result work).
/// Most partitions are never solved before a caller stops: on 5×5 grids
/// under width this is ~1.3 optimizer calls per result against ~6.5 for
/// solving every partition as it is created.
///
/// Delay. Every partition is solved at most once, so the total number of
/// solves never exceeds the eager bound of 1 + Σ|MinSep(H)| over the
/// results. What changes is *when* they happen: the solves that eager
/// expansion spreads over a κ level all run when that level ends, so the
/// worst-case gap between two results is bounded by the number of pending
/// partitions rather than by |MinSep(G)|. Measured against eager expansion
/// under fill cost (Release, one core of a 4-core x86 host): on a 4×6 grid,
/// K = 100k, total 173 → 100 s, p99 delay 4.3 → 12.2 ms, max delay 16 →
/// 154 ms; on a 5×5 grid, K = 3000, total 10.8 → 3.6 s, max delay 39 → 58
/// ms.
///
/// Constraint sets are not copied per queue entry: the Lawler–Murty tree is
/// materialized once in a node arena (each node = one separator moved into
/// I or X, plus a parent link), and entries store a single node index.
/// Sibling partitions share their common include-prefix nodes.
///
/// Pull-based: Next() returns the next-cheapest minimal triangulation, or
/// std::nullopt when the enumeration is exhausted, so callers can stop at
/// any time (the "anytime" usage the paper motivates).
///
/// Ranked proper tree decompositions (Proposition 6.1) are CliqueTreeOf
/// (enumeration/tree_decomposition.h) applied to each result: a bag cost
/// gives every clique tree of one triangulation the same cost, so the
/// canonical clique tree is a legitimate ranked representative.
class RankedTriangulationEnumerator {
 public:
  /// `ctx` and `cost` must outlive the enumerator. Every optimizer call
  /// goes to one MinTriangSolver, which repairs its DP tables incrementally
  /// between sibling partitions. The constructor solves [∅, ∅].
  RankedTriangulationEnumerator(const TriangulationContext& ctx,
                                const BagCost& cost);

  std::optional<Triangulation> Next();

  /// Per-enumeration wall-clock budget, polled by the solver inside its
  /// repair loops and by Next() after it hands out a result. Once it has
  /// expired, truncated() turns true and every later Next() yields
  /// std::nullopt (the remaining stream can no longer be guaranteed
  /// complete or in order); a result already popped is still returned.
  /// Nullptr disables.
  void SetDeadline(const Deadline* deadline) {
    deadline_ = deadline;
    solver_.set_deadline(deadline);
  }

  /// True when a deadline cut the enumeration short (the stream ended by
  /// budget, not by exhaustion).
  bool truncated() const { return truncated_; }

  /// Number of (constrained) optimizer invocations so far (for the
  /// experiment harness): one per partition that reached the top of the
  /// queue, plus the constructor's.
  long long num_optimizer_calls() const { return num_optimizer_calls_; }

  /// Candidate evaluations performed by the underlying solver — divide by
  /// num_optimizer_calls() to see the incremental repair at work (a full
  /// DP pass would evaluate every candidate each call).
  long long num_candidate_evals() const {
    return solver_.num_candidate_evals();
  }
  /// Evaluations that reached the (expensive) base Combine; the rest
  /// short-circuited on a constraint violation or infeasible child.
  long long num_combine_calls() const { return solver_.num_combine_calls(); }
  /// Segment-tree repair counters: point updates and range-min queries.
  long long num_index_updates() const { return solver_.num_index_updates(); }
  long long num_range_queries() const { return solver_.num_range_queries(); }

 private:
  /// One separator moved into I (is_include) or X (!is_include), chained to
  /// the parent constraint set. -1 parents terminate at [∅, ∅].
  struct ConstraintNode {
    int sep_id;
    int parent;
    bool is_include;
  };
  /// A partition in the queue. Unsolved entries (no triangulation yet)
  /// carry their parent's cost as a lower bound on their own.
  struct Entry {
    CostValue cost;
    long long sequence;  // tie-break for deterministic order
    std::optional<Triangulation> triangulation;
    int constraints;  // index into arena_, -1 for [∅, ∅]
  };
  /// Min-heap on (cost, solved before unsolved, sequence).
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.cost != b.cost) return a.cost > b.cost;
      if (a.triangulation.has_value() != b.triangulation.has_value()) {
        return !a.triangulation.has_value();
      }
      return a.sequence > b.sequence;
    }
  };

  /// Queues the children of the popped result `top` unsolved (lines 7-13).
  void Expand(const Entry& top);
  /// Decodes a constraint chain into sorted include/exclude id sets.
  void CollectConstraints(int node, std::vector<int>* include,
                          std::vector<int>* exclude) const;

  const TriangulationContext& ctx_;
  MinTriangSolver solver_;
  std::vector<ConstraintNode> arena_;
  std::priority_queue<Entry, std::vector<Entry>, EntryCompare> queue_;
  const Deadline* deadline_ = nullptr;
  long long sequence_ = 0;
  long long num_optimizer_calls_ = 0;
  bool exhausted_ = false;
  bool truncated_ = false;
};

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_RANKED_ENUM_H_
