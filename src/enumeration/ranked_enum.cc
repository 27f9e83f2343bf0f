#include "enumeration/ranked_enum.h"

#include <algorithm>
#include <cassert>

namespace mintri {

RankedTriangulationEnumerator::RankedTriangulationEnumerator(
    const TriangulationContext& ctx, const BagCost& cost)
    : ctx_(ctx), solver_(ctx, cost) {
  ++num_optimizer_calls_;
  std::optional<Triangulation> first = solver_.Solve({}, {});
  if (first.has_value()) {
    const CostValue c = first->cost;
    queue_.push({c, sequence_++, std::move(first), -1});
  } else {
    exhausted_ = true;
  }
}

void RankedTriangulationEnumerator::CollectConstraints(
    int node, std::vector<int>* include, std::vector<int>* exclude) const {
  include->clear();
  exclude->clear();
  for (; node >= 0; node = arena_[node].parent) {
    (arena_[node].is_include ? include : exclude)
        ->push_back(arena_[node].sep_id);
  }
  std::sort(include->begin(), include->end());
  std::sort(exclude->begin(), exclude->end());
}

void RankedTriangulationEnumerator::Expand(const Entry& top) {
  std::vector<int> include, exclude;
  CollectConstraints(top.constraints, &include, &exclude);

  // Split the remainder of [I, X] along MinSep(H) \ I.
  std::vector<int> h_seps;
  h_seps.reserve(top.triangulation->separators.size());
  for (const VertexSet& s : top.triangulation->separators) {
    int id = ctx_.SeparatorId(s);
    assert(id >= 0);  // every adhesion is a minimal separator of G
    h_seps.push_back(id);
  }
  std::sort(h_seps.begin(), h_seps.end());
  std::vector<int> free_seps;
  std::set_difference(h_seps.begin(), h_seps.end(), include.begin(),
                      include.end(), std::back_inserter(free_seps));

  // Partition i: [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}]. The include prefix is
  // shared between siblings through the arena chain; each partition is one
  // exclude node hanging off it. Each is queued unsolved at the popped
  // cost, a lower bound on its own minimum.
  int chain = top.constraints;
  for (size_t i = 0; i < free_seps.size(); ++i) {
    const int s = free_seps[i];
    arena_.push_back({s, chain, false});
    queue_.push({top.cost, sequence_++, std::nullopt,
                 static_cast<int>(arena_.size()) - 1});
    if (i + 1 < free_seps.size()) {
      arena_.push_back({s, chain, true});
      chain = static_cast<int>(arena_.size()) - 1;
    }
  }
}

std::optional<Triangulation> RankedTriangulationEnumerator::Next() {
  // A truncated stream stays truncated: part of the Lawler–Murty tree was
  // never solved, so continuing would silently drop or misorder results.
  if (exhausted_ || truncated_) return std::nullopt;
  std::vector<int> include, exclude;
  while (!queue_.empty()) {
    // Moving out of top() is safe: the comparator only reads cost,
    // sequence and whether the optional is engaged, which moving leaves
    // intact.
    Entry top = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();

    if (!top.triangulation.has_value()) {
      // An unsolved partition reached the top: solve it once. Its
      // representative costs at least the key it was queued at, so it goes
      // back in at its own cost and pops when that cost is the minimum.
      CollectConstraints(top.constraints, &include, &exclude);
      ++num_optimizer_calls_;
      std::optional<Triangulation> h = solver_.Solve(include, exclude);
      if (solver_.truncated()) {
        truncated_ = true;
        return std::nullopt;
      }
      // A finite-cost result under κ[I, X] already satisfies [I, X] (the
      // satisfaction test of line 12), and is ranked by the unconstrained
      // cost — equal for satisfying triangulations by Equation (2). An
      // empty partition is simply dropped.
      if (h.has_value()) {
        top.cost = h->cost;
        top.triangulation = std::move(h);
        queue_.push(std::move(top));
      }
      continue;
    }

    // A solved entry at the top is the next result (lines 5-6).
    Expand(top);
    // Out of budget: hand out this result, which is already correct, but
    // end the stream here, truthfully marked, rather than solve on.
    if (deadline_ != nullptr && !queue_.empty() && deadline_->Expired()) {
      truncated_ = true;
    }
    return std::move(top.triangulation);
  }
  exhausted_ = true;
  return std::nullopt;
}

}  // namespace mintri
