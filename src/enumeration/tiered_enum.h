#ifndef MINTRI_ENUMERATION_TIERED_ENUM_H_
#define MINTRI_ENUMERATION_TIERED_ENUM_H_

#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "cost/bag_cost.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/tree_decomposition.h"
#include "preprocess/preprocess.h"

namespace mintri {

/// Which tier of the solve pipeline answered.
///  - kExact:     the classic full enumeration (complete ranked stream).
///  - kAtomExact: Tier 0 reduced/decomposed the graph and every atom was
///                solved exactly — the stream is still the complete set of
///                minimal triangulations in non-decreasing κ order (ties may
///                interleave differently than the direct path).
///  - kHeuristic: at least one atom fell back to the LB-Triang-seeded
///                restricted family — every result is still a genuine
///                minimal triangulation with its true κ, but the stream may
///                be incomplete and κ positions are not globally optimal.
enum class SolveTier { kExact, kAtomExact, kHeuristic };

const char* TierName(SolveTier tier);

/// True for registry costs whose global value is a monotone function of the
/// per-atom values under clique-separator gluing and simplicial lifting —
/// the soundness gate for Tier-0 reduction/decomposition: width, fill,
/// hypertree, fhw. Not width-then-fill (its encoded multiplier is a
/// whole-graph quantity) and not state-space (an atom bag subsumed by an
/// elimination bag can invert the product order).
bool IsTierDecomposableCost(const std::string& cost_name);

struct TierOptions {
  enum class Mode {
    kExact,      // units = components, per-stage limits only, no Tier 2
    kAuto,       // try exact per atom, degrade to the heuristic family
    kHeuristic,  // skip exact attempts entirely
  };
  Mode mode = Mode::kAuto;

  /// Set by the caller per cost (see IsTierDecomposableCost). When false
  /// (and always in Mode::kExact), Tier 0 is skipped and the units are
  /// exactly the connected components.
  bool decomposable_cost = false;

  /// Mode::kAuto only: shared wall-clock budget across all per-unit *exact*
  /// build attempts (Tier 1). Once spent, remaining units go straight to
  /// Tier 2 and are tallied as ms-terminated attempts. Infinite disables the
  /// gate (each build still honors the per-stage ContextOptions limits).
  double exact_budget_seconds = std::numeric_limits<double>::infinity();
};

/// No fields; kept because callers still pass `{}` as the fifth argument.
struct SolverOptions {};

/// One result of the tiered pipeline in compact form, in g's labels: the
/// glued clique tree of a minimal triangulation H of g. Bag i is
/// members[bags[i].begin, bags[i].end), sorted ascending; parent[i] is the
/// index of its parent bag, -1 for a root (one root per connected component
/// of g). The bags are exactly the maximal cliques of H, so this is a
/// proper tree decomposition (Proposition 6.1), and H itself is the
/// saturation of the bags; ToTriangulation builds it.
///
/// `fill` = |E(H)| - |E(g)| is the sum of the units' fill counts. Proof: H
/// is g plus the saturated unit bags plus the lift bags N[v]. Each N(v) is a
/// clique of g (v was simplicial in an induced subgraph of g), so the lift
/// bags add no edge. A fill edge {x, y} of a unit lies in the unit's vertex
/// set, and two units meet only inside a clique of g: components are
/// disjoint, and two atoms of a clique-minimal-separator decomposition
/// intersect inside one of its clique separators. So no pair is a fill edge
/// of two units, and the units' fill edge sets are disjoint.
struct GluedTree {
  std::vector<int> members;
  std::vector<BagRange> bags;
  std::vector<int> parent;
  CostValue cost = 0;
  long long fill = 0;
  SolveTier tier = SolveTier::kExact;

  int Width() const;
  /// The tree edges (parent[i], i) in increasing i, as WritePaceTd takes
  /// them.
  std::vector<std::pair<int, int>> Edges() const;
  /// The dense form: the bags as n-bit sets, `filled` = g plus the
  /// saturated bags, the sorted distinct non-empty adhesions, and `cost`.
  Triangulation ToTriangulation(const Graph& g) const;
};

/// The dense view of one result (TieredEnumerator::Next).
struct TieredResult {
  Triangulation triangulation;
  SolveTier tier;
};

/// Ranked enumeration of minimal triangulations for an arbitrary (possibly
/// disconnected) graph, through a tiered solve pipeline: Tier 0 (simplicial
/// reduction + clique-minimal-separator atom decomposition), Tier 1 (the
/// exact ranked stack per unit), Tier 2 (LB-Triang-seeded restricted-family
/// enumeration when a unit exceeds its MinSep/PMC budget).
///
/// The units (connected components, or their atoms) are triangulated
/// independently, so the global stream is the *ranked product* of the
/// per-unit streams: a priority queue over index tuples (i_1, ..., i_k),
/// lazily materializing each unit's ranked list. The composed cost is
/// monotone in every coordinate (split-monotone bag costs are), so the
/// product order is correct. A popped tuple only advances coordinates
/// c >= the one that produced it, which gives every tuple exactly one
/// parent and makes the stream duplicate-free without a seen-set (Tziavelis
/// et al., "Optimal Algorithms for Ranked Enumeration of Answers to Full
/// Conjunctive Queries", PVLDB 2020).
///
/// Each popped tuple is glued into one GluedTree: the atoms' clique trees are
/// linked on the clique separators Tier 0 split on, and the eliminated
/// simplicial vertices' bags are hung back on, so no whole-graph clique tree
/// is rebuilt per result, and no n-bit set is built unless the cost has to
/// be re-evaluated or a caller asks for the dense Triangulation.
///
/// Mode::kExact is this product over the connected components alone.
/// Mode::kAuto with no reduction/decomposition/fallback emits the same
/// stream byte-for-byte. Deterministic and byte-identical at every thread
/// count.
class TieredEnumerator {
 public:
  TieredEnumerator(const Graph& g, const BagCost& cost,
                   CostComposition composition,
                   const ContextOptions& options = {},
                   const SolverOptions& = {},
                   const TierOptions& tier_options = {});

  /// Only false in Mode::kExact when a component's build hit its limits
  /// (NextGlued() and Next() then return nothing); the auto/heuristic modes
  /// always have Tier 2 to fall back on.
  bool init_ok() const { return init_ok_; }

  /// Per-enumeration wall-clock budget, forwarded to every unit enumerator.
  void SetDeadline(const Deadline* deadline);

  /// True when a deadline cut some unit's stream short.
  bool truncated() const;

  long long num_optimizer_calls() const;
  long long num_candidate_evals() const;
  long long num_combine_calls() const;
  long long num_index_updates() const;
  long long num_range_queries() const;

  /// Aggregated build breakdown over every unit (exact attempts and
  /// heuristic family builds both count), including the per-atom termination
  /// tallies and the folded-in Tier-0 counters. On an exact-mode failure,
  /// termination names the stage that gave up (the Fig. 5 "MS terminated" /
  /// "PMC terminated" taxonomy).
  const ContextBuildInfo& init_info() const { return init_info_; }
  double init_seconds() const { return init_info_.total_seconds; }

  /// The truthful label of the stream (and of every result it emits).
  SolveTier tier() const { return tier_; }

  /// Tier-0 summary over all components (zeros when Tier 0 never ran).
  const PreprocessInfo& preprocess_info() const { return preprocess_info_; }

  /// Wall clock spent in per-unit *exact* context builds (successful and
  /// budget-terminated attempts alike).
  double tier1_seconds() const { return tier1_seconds_; }
  /// Wall clock spent building heuristic restricted-family contexts.
  double tier2_seconds() const { return tier2_seconds_; }

  /// The next-cheapest minimal triangulation (original vertex ids) as its
  /// glued clique tree, or nullptr at the end of the stream. The tree is
  /// owned by the enumerator and valid until the next call. Heuristic
  /// streams are non-decreasing in κ within the restricted family;
  /// exact/atom-exact streams are complete.
  const GluedTree* NextGlued();

  /// NextGlued's result in dense form (GluedTree::ToTriangulation) with its
  /// tier label.
  std::optional<TieredResult> Next();

 private:
  /// One solve unit: an atom of some connected component (or the component
  /// itself when Tier 0 is off / found nothing to split).
  struct Unit {
    std::vector<int> old_of_new;  // unit labels -> g labels
    std::unique_ptr<BagCost> restricted_cost;
    std::unique_ptr<TriangulationContext> context;
    std::unique_ptr<RankedTriangulationEnumerator> enumerator;
    int num_edges = 0;  // of the unit subgraph
    /// The memoized ranked prefix, relabeled to g's labels, with each
    /// result's fill count.
    std::vector<GluedTree> produced;
    bool exhausted = false;
    SolveTier tier = SolveTier::kExact;
  };

  /// False only when an exact-mode build hit its limits.
  bool AddUnit(const Graph& sub, std::vector<int> old_of_new,
               const ContextOptions& options,
               const TierOptions& tier_options, double remaining_budget);
  bool Materialize(int unit, size_t i);
  long long SumOverUnits(
      long long (RankedTriangulationEnumerator::*stat)() const) const;
  CostValue Compose(const std::vector<size_t>& indices) const;
  /// Glues the result for one index tuple into glued_: the units' clique
  /// trees side by side, linked across the atom tree, with the lift bags
  /// hung on in reverse elimination order. Linear in the total bag size
  /// over int ranges; nothing is rebuilt from the filled graph. The cost is
  /// the composed unit costs, or, once Tier 0 rewrote the graph, Evaluate on
  /// eval_bags_, whose n-bit sets are reset rather than reallocated.
  void Assemble(const std::vector<size_t>& indices);

  const Graph& g_;
  const BagCost& cost_;
  CostComposition composition_;
  bool init_ok_ = true;
  /// True once Tier 0 changed the unit structure (eliminated a vertex or
  /// split a component); results then carry the cost evaluated on their
  /// final bags instead of the composed unit costs.
  bool lifted_ = false;
  SolveTier tier_ = SolveTier::kExact;
  ContextBuildInfo init_info_;
  PreprocessInfo preprocess_info_;
  double tier1_seconds_ = 0;
  double tier2_seconds_ = 0;
  /// A Tier-0-eliminated vertex (g labels). Its lift bag N[v] at
  /// elimination time is a maximal clique of every assembled triangulation.
  struct Lift {
    int vertex;
    std::vector<int> neighbors;  // N(v) at elimination time, sorted
    std::vector<int> bag;        // N[v], sorted
  };
  /// An atom-tree link (Preprocess's AtomLink) between two units, oriented
  /// so that every parent unit is linked before it is anyone's child.
  struct Link {
    int parent_unit;
    int child_unit;
    std::vector<int> separator;  // g labels, sorted
  };
  std::vector<Lift> lifts_;  // in elimination order
  std::vector<Link> links_;
  std::vector<Unit> units_;
  /// Assemble's output and scratch: holders_[v] lists the bags that contain
  /// v; eval_bags_ holds the dense bags the cost is evaluated on, and
  /// spare_bags_ keeps the sets a smaller result did not need.
  GluedTree glued_;
  std::vector<std::vector<int>> holders_;
  std::vector<VertexSet> eval_bags_;
  std::vector<VertexSet> spare_bags_;

  struct QueueEntry {
    CostValue cost;
    std::vector<size_t> indices;
    size_t last;  // the coordinate advanced to reach `indices`
    // Tuples are unique in the queue, so `last` never breaks a tie.
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return indices > other.indices;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_TIERED_ENUM_H_
