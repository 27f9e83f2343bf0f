#include "triang/min_triang_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

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

SeparatorGeometry ConstraintGeometry(const TriangulationContext& ctx,
                                     int sep_id) {
  const VertexSet& s = ctx.minimal_separators()[sep_id];
  const std::vector<VertexSet>& pmcs = ctx.pmcs();
  const std::vector<TriangulationContext::BlockEntry>& blocks = ctx.blocks();
  std::vector<uint8_t> in_pmc(pmcs.size());
  for (size_t i = 0; i < pmcs.size(); ++i) in_pmc[i] = s.IsSubsetOf(pmcs[i]);
  std::vector<uint8_t> in_block(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    in_block[b] = s.IsSubsetOf(blocks[b].vertices);
  }
  SeparatorGeometry geo;
  const int root = ctx.root_node();
  for (int node = 0; node <= root; ++node) {
    if (node != root && !in_block[node]) continue;  // S ⊆ V at the root
    for (int id = ctx.CandidateBegin(node); id < ctx.CandidateEnd(node);
         ++id) {
      if (in_pmc[ctx.CandidatePmc(id)]) {
        geo.exclusion.push_back(id);
        continue;
      }
      bool inside_child = false;
      for (int cid : ctx.Children(id)) {
        if (in_block[cid]) {
          inside_child = true;
          break;
        }
      }
      if (!inside_child) geo.inclusion.push_back(id);
    }
  }
  geo.exclusion.shrink_to_fit();
  geo.inclusion.shrink_to_fit();
  return geo;
}

MinTriangSolver::MinTriangSolver(const TriangulationContext& ctx,
                                 const BagCost& cost)
    : ctx_(ctx),
      cost_(cost),
      empty_separator_(ctx.graph().NumVertices()),
      all_vertices_(ctx.graph().Vertices()) {
  const int num_nodes = Root() + 1;
  const size_t num_cands = static_cast<size_t>(ctx.num_candidates());
  cand_values_.assign(num_cands, kInfiniteCost);
  cand_blocked_.assign(num_cands, 0);
  dirty_.assign((num_cands + 63) / 64, 0);
  cand_trees_.resize(num_nodes);
  value_.assign(num_nodes, kInfiniteCost);
  choice_.assign(num_nodes, -1);
}

void MinTriangSolver::BuildHosts() {
  // Candidate-granular reverse edges: when block b's value changes, the
  // repair dirties exactly the candidates that combine over b — a point
  // update each — instead of rescanning every candidate of every host.
  const int num_blocks = static_cast<int>(ctx_.blocks().size());
  const int num_cands = ctx_.num_candidates();
  host_begin_.assign(static_cast<size_t>(num_blocks) + 1, 0);
  for (int id = 0; id < num_cands; ++id) {
    for (int cid : ctx_.Children(id)) ++host_begin_[cid + 1];
  }
  for (int b = 0; b < num_blocks; ++b) host_begin_[b + 1] += host_begin_[b];
  host_cands_.resize(host_begin_[num_blocks]);
  std::vector<int> cursor(host_begin_.begin(), host_begin_.end() - 1);
  for (int id = 0; id < num_cands; ++id) {
    for (int cid : ctx_.Children(id)) host_cands_[cursor[cid]++] = id;
  }
}

const SeparatorGeometry& MinTriangSolver::GeometryFor(int sep_id) {
  auto it = sep_geometry_.find(sep_id);
  if (it != sep_geometry_.end()) return it->second;
  // Computed once per separator ever used in a constraint; afterwards every
  // delta for this separator walks the exact affected lists with no subset
  // tests at all.
  return sep_geometry_.emplace(sep_id, ConstraintGeometry(ctx_, sep_id))
      .first->second;
}

CostValue MinTriangSolver::EvalCandidate(int node, int cand) {
  ++num_candidate_evals_;
  child_blocks_buf_.clear();
  child_costs_buf_.clear();
  for (int cid : ctx_.Children(cand)) {
    CostValue v = value_[cid];
    if (std::isinf(v)) return kInfiniteCost;
    child_blocks_buf_.push_back(&ctx_.blocks()[cid].vertices);
    child_costs_buf_.push_back(v);
  }
  CombineContext cc{ctx_.graph(),
                    ctx_.pmcs()[ctx_.CandidatePmc(cand)],
                    NodeSeparator(node),
                    NodeVertices(node),
                    child_blocks_buf_,
                    child_costs_buf_};
  // Both callers skip candidates with blocked > 0, which is exactly the
  // set CombineViolatesConstraints rejects; checked in debug builds.
  assert(!CombineViolatesConstraints(cc, include_sets_, exclude_sets_));
  ++num_combine_calls_;
  return cost_.Combine(cc);
}

int MinTriangSolver::NextDirty(int from, int end) const {
  if (from >= end) return end;
  size_t word = static_cast<size_t>(from) >> 6;
  uint64_t bits = dirty_[word] & (~uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (static_cast<int>(++word << 6) >= end) return end;
    bits = dirty_[word];
  }
  return std::min(end, static_cast<int>(word << 6) + __builtin_ctzll(bits));
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
  // candidate is marked so that the repair re-picks its block, with no
  // evaluation; an already-∞ one stays put. blocked — how many current
  // constraints a candidate violates — stays exact under adds/removes
  // because each (separator, candidate) geometry is static, and
  // blocked > 0 ⟺ CombineViolatesConstraints there.
  const auto add = [&](const std::vector<int>& affected) {
    for (int id : affected) {
      if (++cand_blocked_[id] == 1 && !full &&
          !std::isinf(cand_values_[id])) {
        MarkDirty(id);
      }
    }
  };
  // Removals can only revive a candidate, and only once its *last* blocking
  // constraint goes away; until then no evaluation is needed. (On a full
  // pass only the counters need maintaining — everything is re-evaluated
  // anyway, so nothing is marked.)
  const auto remove = [&](const std::vector<int>& affected) {
    for (int id : affected) {
      if (--cand_blocked_[id] == 0 && !full) MarkDirty(id);
    }
  };
  for (int id : added_exc) add(GeometryFor(id).exclusion);
  for (int id : added_inc) add(GeometryFor(id).inclusion);
  for (int id : removed_exc) remove(GeometryFor(id).exclusion);
  for (int id : removed_inc) remove(GeometryFor(id).inclusion);
}

void MinTriangSolver::RepickNode(int node, bool full) {
  // A range-min query. The tree's first-minimum tie-break is the full DP's
  // "first strict improvement wins", so ties resolve to the smallest
  // candidate id. A blocked leaf may still hold the finite value it had
  // before its blocker came: it counts as ∞, so when it tops the tree it
  // is set to ∞ and the tree is asked again.
  const int begin = ctx_.CandidateBegin(node);
  RangeMinTree& tree = cand_trees_[node];
  ++num_range_queries_;
  int min_k;
  while (true) {
    min_k = tree.MinIndex();
    if (min_k < 0) break;
    const int id = begin + min_k;
    if (cand_blocked_[id] == 0 || std::isinf(cand_values_[id])) break;
    cand_values_[id] = kInfiniteCost;
    tree.Update(min_k, kInfiniteCost);
    ++num_index_updates_;
  }
  const bool feasible =
      min_k >= 0 && !std::isinf(cand_values_[begin + min_k]);
  const CostValue best = feasible ? cand_values_[begin + min_k] : kInfiniteCost;
  choice_[node] = feasible ? begin + min_k : -1;
  if (best == value_[node]) return;
  value_[node] = best;
  if (full || node == Root()) return;
  // A blocked host holds ∞ whatever this value is, and the removal of its
  // last blocker marks it dirty, so the cascade skips it.
  for (int at = host_begin_[node]; at < host_begin_[node + 1]; ++at) {
    const int host = host_cands_[at];
    if (cand_blocked_[host] == 0) MarkDirty(host);
  }
}

void MinTriangSolver::Repair(bool full) {
  const int root = Root();
  // Blocks are sorted ascending by |S ∪ C|, every child is strictly
  // smaller than its host, and candidate ids ascend with the node, so one
  // forward pass (root last) processes a child before any candidate it
  // appears under: the cascade only ever marks ids still ahead of the
  // sweep.
  if (full) {
    std::fill(dirty_.begin(), dirty_.end(), 0);
    for (int node = 0; node <= root; ++node) {
      if (PollDeadline()) return;
      const int begin = ctx_.CandidateBegin(node);
      const int end = ctx_.CandidateEnd(node);
      if (begin == end) continue;
      for (int id = begin; id < end; ++id) {
        cand_values_[id] =
            cand_blocked_[id] > 0 ? kInfiniteCost : EvalCandidate(node, id);
        if (PollDeadline()) return;
      }
      cand_trees_[node].Assign(cand_values_.data() + begin, end - begin);
      RepickNode(node, full);
    }
    return;
  }
  // Only the nodes holding a dirty candidate, found by scanning the bitset
  // in id order; each dirty candidate is one point update at most.
  const int num_cands = ctx_.num_candidates();
  int node = 0;
  for (int id = NextDirty(0, num_cands); id < num_cands;) {
    if (PollDeadline()) return;
    // The node whose candidate range holds id (nodes only move forward).
    while (ctx_.CandidateEnd(node) <= id) ++node;
    const int begin = ctx_.CandidateBegin(node);
    const int end = ctx_.CandidateEnd(node);
    for (; id < end; id = NextDirty(id + 1, end)) {
      dirty_[static_cast<size_t>(id) >> 6] &= ~(uint64_t{1} << (id & 63));
      // A blocked candidate keeps its leaf: RepickNode sets it to ∞ only if
      // it tops the tree.
      if (cand_blocked_[id] > 0) continue;
      const CostValue v = EvalCandidate(node, id);
      if (v != cand_values_[id]) {
        cand_values_[id] = v;
        cand_trees_[node].Update(id - begin, v);
        ++num_index_updates_;
      }
      if (PollDeadline()) return;
    }
    RepickNode(node, full);
    id = NextDirty(end, num_cands);
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
    if (!full && host_begin_.empty()) BuildHosts();
    ApplyConstraintDelta(exc_added, inc_added, exc_removed, inc_removed, full);
    Repair(full);
    if (truncated_) {
      // The sweep stopped midway: value_/choice_ may mix old and new
      // solves. The blocked counters are still exact for the *committed*
      // constraint state, so forcing the next Solve through a full pass
      // restores every table.
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
  const int root_cand = choice_[Root()];
  t.bags.push_back(ctx_.pmcs()[ctx_.CandidatePmc(root_cand)]);
  t.parent.push_back(-1);
  for (int cid : ctx_.Children(root_cand)) stack.push_back({cid, 0});
  std::vector<VertexSet>& seps = reconstruct_seps_;
  seps.clear();
  while (!stack.empty()) {
    ReconstructFrame f = stack.back();
    stack.pop_back();
    const int cand = choice_[f.block_id];
    assert(cand >= 0);
    int bag_index = static_cast<int>(t.bags.size());
    t.bags.push_back(ctx_.pmcs()[ctx_.CandidatePmc(cand)]);
    t.parent.push_back(f.parent_bag);
    seps.push_back(blocks[f.block_id].separator);
    for (int cid : ctx_.Children(cand)) stack.push_back({cid, bag_index});
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
