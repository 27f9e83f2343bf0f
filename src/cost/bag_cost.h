#ifndef MINTRI_COST_BAG_COST_H_
#define MINTRI_COST_BAG_COST_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mintri {

/// Numeric cost of a tree decomposition / triangulation. +infinity encodes
/// "forbidden" (used for constraint violations and width bounds).
using CostValue = double;

inline constexpr CostValue kInfiniteCost =
    std::numeric_limits<CostValue>::infinity();

/// How a bag cost composes across independently triangulated pieces
/// (connected components, clique-separator atoms). Width-like costs compose
/// by max; fill-like and sum-of-bag-weight costs compose by sum.
enum class CostComposition { kMax, kSum };

/// Inputs to BagCost::Combine — the cost of the sub-decomposition obtained
/// by placing bag `omega` above the already-solved children blocks of the
/// dynamic program (Section 5 of the paper, Equation (1)):
///
///     H(S, C) = ∪_i H(S_i, C_i)  ∪  K_Ω .
///
/// `parent_separator` is the block's separator S (empty at the root call);
/// `block_vertices` is S ∪ C (all of V(G) at the root); child_blocks[i] is
/// S_i ∪ C_i for the i-th child block; child_costs[i] is the DP value of the
/// optimal triangulation of the i-th child's realization. The DP never calls
/// Combine with an infinite child cost.
struct CombineContext {
  const Graph& graph;  // the whole input graph G
  const VertexSet& omega;
  const VertexSet& parent_separator;
  const VertexSet& block_vertices;
  const std::vector<const VertexSet*>& child_blocks;
  const std::vector<CostValue>& child_costs;
};

/// A cost function over tree decompositions that is invariant under bag
/// equivalence (a "bag cost", Definition 3.2(1)) and split monotone
/// (Definition 3.2(2)). Implementations must satisfy, for every clique tree
/// assembled by the DP:
///
///     fold of Combine over the tree  ==  Evaluate(g, all bags) ,
///
/// which the test suite checks for every standard cost. Max-composed costs
/// (width) take the max of children and the new bag; sum-composed costs
/// (fill-in, state space) add a per-bag term that counts only what is new
/// relative to the parent separator, so that nothing is double counted
/// across adjacent bags.
class BagCost {
 public:
  virtual ~BagCost() = default;

  virtual std::string Name() const = 0;

  /// Cost of the sub-decomposition rooted at ctx.omega (see CombineContext).
  virtual CostValue Combine(const CombineContext& ctx) const = 0;

  /// Cost of a whole tree decomposition of g given as its bag set.
  virtual CostValue Evaluate(const Graph& g,
                             const std::vector<VertexSet>& bags) const = 0;

  /// Vertex-identity adapter for relabeled subgraphs. The tiered enumerator
  /// triangulates each unit (component or atom) as an induced subgraph
  /// with vertices renumbered 0..k-1, so costs whose bag scores depend on
  /// vertex *identity* (hypergraph edge covers, per-vertex domain sizes,
  /// weighted fill) would otherwise score the wrong vertices. Returns a
  /// cost equivalent to *this for the subgraph whose vertex i is original
  /// vertex old_of_new[i] (bags are translated back to original labels of
  /// capacity old_capacity before scoring), or nullptr when *this is
  /// invariant under relabeling (pure structure costs: width, fill).
  virtual std::unique_ptr<BagCost> RestrictTo(
      const std::vector<int>& old_of_new, int old_capacity) const {
    (void)old_of_new;
    (void)old_capacity;
    return nullptr;
  }
};

/// Number of unordered pairs {x, y} ⊆ omega that are non-adjacent in g and
/// not both inside `parent_separator` — the fill pairs "new" at this bag.
/// Shared by the fill-flavored costs.
long long NewFillPairs(const Graph& g, const VertexSet& omega,
                       const VertexSet& parent_separator);

}  // namespace mintri

#endif  // MINTRI_COST_BAG_COST_H_
