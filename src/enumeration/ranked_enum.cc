#include "enumeration/ranked_enum.h"

#include <algorithm>
#include <cassert>

namespace mintri {

namespace {

void InsertSorted(std::vector<int>* v, int id) {
  v->insert(std::upper_bound(v->begin(), v->end(), id), id);
}

void EraseSorted(std::vector<int>* v, int id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  assert(it != v->end() && *it == id);
  v->erase(it);
}

}  // namespace

RankedTriangulationEnumerator::RankedTriangulationEnumerator(
    const TriangulationContext& ctx, const BagCost& cost)
    : ctx_(ctx), solver_(ctx, cost) {
  ++num_optimizer_calls_;
  std::optional<Triangulation> first = solver_.Solve({}, {});
  if (first.has_value()) {
    Push(std::move(*first), -1);
  } else {
    exhausted_ = true;
  }
}

void RankedTriangulationEnumerator::Push(Triangulation t, int constraints) {
  Entry e{t.cost, sequence_++, std::move(t), constraints};
  queue_.push(std::move(e));
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

std::optional<Triangulation> RankedTriangulationEnumerator::Next() {
  // A truncated stream stays truncated: part of some Lawler–Murty expansion
  // was skipped, so continuing would silently drop or misorder results.
  if (exhausted_ || truncated_ || queue_.empty()) {
    exhausted_ = true;
    return std::nullopt;
  }
  // Moving out of top() is safe: the comparator only reads the trivially
  // copyable cost/sequence fields, which moving leaves intact.
  Entry top = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();

  std::vector<int> include, exclude;
  CollectConstraints(top.constraints, &include, &exclude);

  // Split the remainder of [I, X] along MinSep(H) \ I (lines 7-13).
  std::vector<int> h_seps;
  h_seps.reserve(top.triangulation.separators.size());
  for (const VertexSet& s : top.triangulation.separators) {
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
  // exclude node hanging off it. Consecutive solver calls differ by at most
  // three separators, so each is an incremental repair.
  int chain = top.constraints;
  for (size_t i = 0; i < free_seps.size(); ++i) {
    const int s = free_seps[i];
    InsertSorted(&exclude, s);
    arena_.push_back({s, chain, false});
    const int partition = static_cast<int>(arena_.size()) - 1;
    ++num_optimizer_calls_;
    std::optional<Triangulation> h = solver_.Solve(include, exclude);
    if (solver_.truncated()) {
      // Out of budget mid-expansion. The popped result is already correct —
      // hand it out — but the stream ends here, truthfully marked.
      truncated_ = true;
      break;
    }
    if (h.has_value()) {
      // The solver returned a finite-cost triangulation, which under
      // κ[I_i, X_i] already implies H ⊨ [I_i, X_i] (the satisfaction test
      // of line 12), ranked by the *unconstrained* cost — equal for
      // satisfying triangulations by Equation (2).
      Push(std::move(*h), partition);
    }
    EraseSorted(&exclude, s);
    if (i + 1 < free_seps.size()) {
      arena_.push_back({s, chain, true});
      chain = static_cast<int>(arena_.size()) - 1;
      InsertSorted(&include, s);
    }
  }

  return std::move(top.triangulation);
}

}  // namespace mintri
