#include "triang/min_triang_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cost/constrained_cost.h"

namespace mintri {

namespace {

// a \ b for sorted id vectors.
void SetDiffInto(const std::vector<int>& a, const std::vector<int>& b,
                 std::vector<int>* out) {
  out->clear();
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(*out));
}

}  // namespace

MinTriangSolver::MinTriangSolver(const TriangulationContext& ctx,
                                 const BagCost& cost)
    : ctx_(ctx),
      cost_(cost),
      empty_separator_(ctx.graph().NumVertices()),
      all_vertices_(ctx.graph().Vertices()) {
  const int num_nodes = Root() + 1;
  cand_values_.resize(num_nodes);
  cand_dirty_.resize(num_nodes);
  cand_blocked_.resize(num_nodes);
  cand_trees_.resize(num_nodes);
  dirty_list_.resize(num_nodes);
  for (int node = 0; node < num_nodes; ++node) {
    const size_t k = Candidates(node).size();
    cand_values_[node].assign(k, kInfiniteCost);
    cand_dirty_[node].assign(k, 0);
    cand_blocked_[node].assign(k, 0);
    num_candidates_total_ += k;
  }
  value_.assign(num_nodes, kInfiniteCost);
  choice_.assign(num_nodes, -1);
  node_forced_.assign(num_nodes, 0);
}

void MinTriangSolver::BuildHosts() {
  hosts_built_ = true;
  // Candidate-granular reverse edges: when block b's value changes, the
  // repair dirties exactly the (host, k) candidates that combine over b —
  // a point update each — instead of rescanning every candidate of every
  // host.
  host_cands_.resize(ctx_.blocks().size());
  const int num_nodes = Root() + 1;
  for (int node = 0; node < num_nodes; ++node) {
    const std::vector<std::vector<int>>& children = Children(node);
    for (size_t k = 0; k < children.size(); ++k) {
      for (int cid : children[k]) {
        host_cands_[cid].push_back({node, static_cast<int>(k)});
      }
    }
  }
}

const MinTriangSolver::SepGeometry& MinTriangSolver::GeometryFor(int sep_id) {
  auto it = sep_geometry_.find(sep_id);
  if (it != sep_geometry_.end()) return it->second;
  // One scan over every candidate, done once per separator ever used in a
  // constraint; afterwards every delta for this separator walks the exact
  // affected lists with no subset tests at all.
  SepGeometry geo;
  const VertexSet& s = ctx_.minimal_separators()[sep_id];
  const int root = Root();
  for (int node = 0; node <= root; ++node) {
    if (!s.IsSubsetOf(NodeVertices(node))) continue;
    const std::vector<int>& cands = Candidates(node);
    const std::vector<std::vector<int>>& children = Children(node);
    for (size_t k = 0; k < cands.size(); ++k) {
      if (s.IsSubsetOf(ctx_.pmcs()[cands[k]])) {
        // Exclusion geometry: the κ[I,X] exclusion test reads S here.
        geo.exclusion.push_back({node, static_cast<int>(k)});
      } else {
        // Inclusion geometry: S fits the block but is neither inside Ω nor
        // inside a child block — the only place the inclusion test flips.
        bool inside_child = false;
        for (int cid : children[k]) {
          if (s.IsSubsetOf(ctx_.blocks()[cid].vertices)) {
            inside_child = true;
            break;
          }
        }
        if (!inside_child) {
          geo.inclusion.push_back({node, static_cast<int>(k)});
        }
      }
    }
  }
  geo.exclusion.shrink_to_fit();
  geo.inclusion.shrink_to_fit();
  return sep_geometry_.emplace(sep_id, std::move(geo)).first->second;
}

CostValue MinTriangSolver::EvalCandidate(int node, size_t k) {
  ++num_candidate_evals_;
  child_blocks_buf_.clear();
  child_costs_buf_.clear();
  for (int cid : Children(node)[k]) {
    CostValue v = value_[cid];
    if (std::isinf(v)) return kInfiniteCost;
    child_blocks_buf_.push_back(&ctx_.blocks()[cid].vertices);
    child_costs_buf_.push_back(v);
  }
  CombineContext cc{ctx_.graph(),
                    ctx_.pmcs()[Candidates(node)[k]],
                    NodeSeparator(node),
                    NodeVertices(node),
                    child_blocks_buf_,
                    child_costs_buf_};
  // Both callers skip candidates with blocked[k] > 0, which is exactly
  // the set CombineViolatesConstraints rejects; checked in debug builds.
  assert(!CombineViolatesConstraints(cc, include_sets_, exclude_sets_));
  ++num_combine_calls_;
  return cost_.Combine(cc);
}

void MinTriangSolver::MarkDirty(int node, int k) {
  if (cand_dirty_[node][k] == epoch_) return;
  cand_dirty_[node][k] = epoch_;
  dirty_list_[node].push_back(k);
}

bool MinTriangSolver::PollDeadline() {
  if (truncated_) return true;
  if (deadline_ == nullptr) return false;
  if ((++poll_tick_ & 63u) == 0 && deadline_->Expired()) truncated_ = true;
  return truncated_;
}

void MinTriangSolver::ApplyConstraintDelta(
    const std::vector<int>& added_exc, const std::vector<int>& added_inc,
    const std::vector<int>& removed_exc, const std::vector<int>& removed_inc,
    bool full) {
  // Additions can only push candidate values to ∞: a newly-blocked finite
  // candidate drops to ∞ with no evaluation, an already-∞ one stays put.
  // blocked[k] — how many current constraints candidate k violates — stays
  // exact under adds/removes because each (separator, candidate) geometry
  // is static, and blocked[k] > 0 ⟺ CombineViolatesConstraints there.
  const auto add = [&](const std::vector<std::pair<int, int>>& affected) {
    for (const auto& [node, k] : affected) {
      if (++cand_blocked_[node][k] == 1 && !full &&
          !std::isinf(cand_values_[node][k])) {
        cand_values_[node][k] = kInfiniteCost;
        cand_trees_[node].Update(k, kInfiniteCost);
        ++num_index_updates_;
        node_forced_[node] = epoch_;
      }
    }
  };
  // Removals can only revive a candidate, and only once its *last* blocking
  // constraint goes away; until then no evaluation is needed. (On a full
  // pass only the counters need maintaining — everything is re-evaluated
  // anyway, so nothing is marked.)
  const auto remove = [&](const std::vector<std::pair<int, int>>& affected) {
    for (const auto& [node, k] : affected) {
      if (--cand_blocked_[node][k] == 0 && !full) MarkDirty(node, k);
    }
  };
  for (int id : added_exc) add(GeometryFor(id).exclusion);
  for (int id : added_inc) add(GeometryFor(id).inclusion);
  for (int id : removed_exc) remove(GeometryFor(id).exclusion);
  for (int id : removed_inc) remove(GeometryFor(id).inclusion);
}

void MinTriangSolver::Repair(bool full) {
  const int root = Root();
  // Blocks are sorted ascending by |S ∪ C| and every child is strictly
  // smaller than its host, so one forward pass (root last) processes a
  // child before any (host, k) candidate it appears under: MarkDirty from
  // the cascade only ever targets nodes still ahead of the sweep.
  for (int node = 0; node <= root; ++node) {
    if (PollDeadline()) return;
    const bool seeded = !dirty_list_[node].empty();
    const bool forced = node_forced_[node] == epoch_;
    if (!full && !seeded && !forced) continue;
    if (full) dirty_list_[node].clear();  // drop marks a truncated solve left

    const std::vector<int>& cands = Candidates(node);
    if (cands.empty()) continue;
    std::vector<CostValue>& values = cand_values_[node];
    std::vector<uint32_t>& blocked = cand_blocked_[node];

    if (full) {
      for (size_t k = 0; k < cands.size(); ++k) {
        values[k] = blocked[k] > 0 ? kInfiniteCost : EvalCandidate(node, k);
        if (PollDeadline()) return;
      }
      cand_trees_[node].Assign(values);
    } else {
      // Only the candidates a constraint delta revived or a changed child
      // dirtied — each one an O(log n) point update; no list scan.
      for (int k : dirty_list_[node]) {
        values[k] = blocked[k] > 0 ? kInfiniteCost : EvalCandidate(node, k);
        cand_trees_[node].Update(k, values[k]);
        ++num_index_updates_;
        if (PollDeadline()) return;
      }
      dirty_list_[node].clear();
    }

    // Re-pick the node optimum with one range-min query. The tree's
    // first-minimum tie-break is the full DP's "first strict improvement
    // wins", so ties resolve to the smallest k.
    ++num_range_queries_;
    const int min_k = cand_trees_[node].MinIndex();
    const bool feasible = min_k >= 0 && !std::isinf(values[min_k]);
    const CostValue best = feasible ? values[min_k] : kInfiniteCost;
    choice_[node] = feasible ? min_k : -1;
    if (best != value_[node]) {
      value_[node] = best;
      if (!full && node != root) {
        for (const auto& [host, hk] : host_cands_[node]) MarkDirty(host, hk);
      }
    }
  }
}

std::optional<Triangulation> MinTriangSolver::Solve(
    const std::vector<int>& include_ids, const std::vector<int>& exclude_ids) {
  assert(std::is_sorted(include_ids.begin(), include_ids.end()));
  assert(std::is_sorted(exclude_ids.begin(), exclude_ids.end()));
  truncated_ = false;
  const std::vector<VertexSet>& separators = ctx_.minimal_separators();

  // Separators that moved in or out of I / X since the last solve.
  std::vector<int> inc_added, inc_removed, exc_added, exc_removed;
  SetDiffInto(include_ids, include_ids_, &inc_added);
  SetDiffInto(include_ids_, include_ids, &inc_removed);
  SetDiffInto(exclude_ids, exclude_ids_, &exc_added);
  SetDiffInto(exclude_ids_, exclude_ids, &exc_removed);
  const bool any_delta = !inc_added.empty() || !inc_removed.empty() ||
                         !exc_added.empty() || !exc_removed.empty();

  const bool full = !solved_once_;
  // A deadline that is already gone: refuse before committing the new
  // constraint state or touching any table, so the cached ids, blocked
  // counters, and values all stay mutually consistent for the next attempt.
  if ((full || any_delta) && deadline_ != nullptr && deadline_->Expired()) {
    truncated_ = true;
    return std::nullopt;
  }
  include_ids_ = include_ids;
  exclude_ids_ = exclude_ids;
  // Element-wise copy-assign instead of clear+push_back: assignment reuses
  // each slot's word buffer, so re-materializing the constraint sets on
  // every Solve of a ranked enumeration allocates nothing in steady state.
  include_sets_.resize(include_ids_.size());
  exclude_sets_.resize(exclude_ids_.size());
  for (size_t i = 0; i < include_ids_.size(); ++i) {
    include_sets_[i] = separators[include_ids_[i]];
  }
  for (size_t i = 0; i < exclude_ids_.size(); ++i) {
    exclude_sets_[i] = separators[exclude_ids_[i]];
  }

  if (full || any_delta) {
    // The reverse DP edges are only needed once repairs start cascading, so
    // the one-shot MinTriang wrapper (a single full pass) never builds them.
    if (!full && !hosts_built_) BuildHosts();
    ++epoch_;
    ApplyConstraintDelta(exc_added, inc_added, exc_removed, inc_removed, full);
    Repair(full);
    if (truncated_) {
      // The sweep stopped midway: value_/choice_ may mix old and new
      // epochs. The blocked counters and cached candidate values are still
      // exact for the *committed* constraint state, so forcing the next
      // Solve through a full pass restores every table.
      solved_once_ = false;
      return std::nullopt;
    }
    solved_once_ = true;
  }

  if (choice_[Root()] < 0 || std::isinf(value_[Root()])) return std::nullopt;
  return Reconstruct();
}

Triangulation MinTriangSolver::Reconstruct() {
  const Graph& g = ctx_.graph();
  const std::vector<TriangulationContext::BlockEntry>& blocks = ctx_.blocks();
  Triangulation t;
  t.cost = value_[Root()];

  std::vector<ReconstructFrame>& stack = reconstruct_stack_;
  stack.clear();
  const int root_k = choice_[Root()];
  t.bags.push_back(ctx_.pmcs()[ctx_.root_candidates()[root_k]]);
  t.parent.push_back(-1);
  for (int cid : ctx_.root_children()[root_k]) stack.push_back({cid, 0});
  std::vector<VertexSet>& seps = reconstruct_seps_;
  seps.clear();
  while (!stack.empty()) {
    ReconstructFrame f = stack.back();
    stack.pop_back();
    const TriangulationContext::BlockEntry& block = blocks[f.block_id];
    int k = choice_[f.block_id];
    assert(k >= 0);
    int bag_index = static_cast<int>(t.bags.size());
    t.bags.push_back(ctx_.pmcs()[block.candidate_pmcs[k]]);
    t.parent.push_back(f.parent_bag);
    seps.push_back(block.separator);
    for (int cid : block.children[k]) stack.push_back({cid, bag_index});
  }
  // Distinct adhesions, in the canonical (VertexSet <) order the previous
  // std::set-based reconstruction produced — without the per-node churn.
  // Copied (not moved) out of the scratch so its element buffers survive
  // for the next Solve; the unique-copy loop replaces sort+unique+erase so
  // no scratch element is destroyed either.
  std::sort(seps.begin(), seps.end());
  t.separators.reserve(seps.size());
  for (size_t i = 0; i < seps.size(); ++i) {
    if (i == 0 || seps[i] != seps[i - 1]) t.separators.push_back(seps[i]);
  }

  t.filled = g;
  for (const VertexSet& bag : t.bags) t.filled.SaturateSet(bag);
  return t;
}

}  // namespace mintri
